package mtree

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"mcost/internal/obs"
	"mcost/internal/pager"
)

// nodeStore abstracts node storage so the tree logic is identical in
// memory and paged modes. store persists a node after modification.
type nodeStore interface {
	alloc(leaf bool) (*node, error)
	// peek reads a node without counting it: statistics collection and
	// the invariant verifier are bookkeeping, not query I/O. Tree.fetch
	// is the counted read (the I/O cost unit of the paper).
	peek(id pager.PageID) (*node, error)
	store(n *node) error
	// free releases a node unlinked by deletion; its ID may be reused by
	// a later alloc.
	free(id pager.PageID)
	// numNodes returns the number of allocated nodes.
	numNodes() int
}

// memStore keeps authoritative nodes in a map; fetches hand out the live
// node. It is the default, fastest mode.
type memStore struct {
	nodes    map[pager.PageID]*node
	next     pager.PageID
	freelist []pager.PageID
}

func newMemStore() *memStore {
	return &memStore{nodes: make(map[pager.PageID]*node)}
}

func (s *memStore) alloc(leaf bool) (*node, error) {
	var id pager.PageID
	if k := len(s.freelist); k > 0 {
		id = s.freelist[k-1]
		s.freelist = s.freelist[:k-1]
	} else {
		id = s.next
		s.next++
	}
	n := &node{id: id, leaf: leaf}
	s.nodes[n.id] = n
	return n, nil
}

func (s *memStore) peek(id pager.PageID) (*node, error) {
	n, ok := s.nodes[id]
	if !ok {
		return nil, fmt.Errorf("mtree: unknown node %d", id)
	}
	return n, nil
}

func (s *memStore) store(n *node) error {
	n.cols.Store(nil)
	return nil
}

func (s *memStore) free(id pager.PageID) {
	if _, ok := s.nodes[id]; ok {
		delete(s.nodes, id)
		s.freelist = append(s.freelist, id)
	}
}

func (s *memStore) numNodes() int { return len(s.nodes) }

// pageChecksumSize is the per-page integrity overhead: a CRC32-C of the
// node payload, stored little-endian in the first 4 bytes of every
// physical page. The checksum covers the rest of the page including its
// zero padding, so any stored bit flip — payload or padding — is caught
// on the next fetch.
const pageChecksumSize = 4

// castagnoli is the CRC32-C polynomial table (the same checksum ext4,
// btrfs and iSCSI use for data integrity).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PhysPageSize returns the physical pager page size for a tree with the
// given node size: the node payload plus the per-page checksum. Paged
// trees mount a pager of this size so that Options.PageSize keeps
// meaning node capacity — a paged tree and a memory tree with the same
// PageSize have identical structure and identical model inputs.
func PhysPageSize(nodeSize int) int { return nodeSize + pageChecksumSize }

// pagedStore round-trips every node through a pager: fetch reads and
// decodes the page, store encodes and writes it. Every access pays the
// serialization cost, exercising the on-page format for real. Each
// physical page carries a CRC32-C over its payload; a mismatch on fetch
// surfaces as a typed *pager.CorruptPageError instead of a garbage
// decode.
type pagedStore struct {
	p        pager.Pager
	codec    ObjectCodec
	corrupt  *obs.Counter
	freelist []pager.PageID
	// root is set by Restore: the freelist is in memory only, so a
	// restored store knows its freed pages once seedFreelist has walked
	// the tree from the root — on first need, so a read-only restored
	// tree reads no page it is not asked for.
	root     func() pager.PageID
	seedOnce sync.Once
}

func newPagedStore(p pager.Pager, codec ObjectCodec, corrupt *obs.Counter) *pagedStore {
	return &pagedStore{p: p, codec: codec, corrupt: corrupt}
}

// nodeSize is the payload capacity of one page.
func (s *pagedStore) nodeSize() int { return s.p.PageSize() - pageChecksumSize }

// verify checks the page checksum and hands back the payload.
func (s *pagedStore) verify(id pager.PageID, buf []byte) ([]byte, error) {
	want := binary.LittleEndian.Uint32(buf)
	got := crc32.Checksum(buf[pageChecksumSize:], castagnoli)
	if got != want {
		s.corrupt.Inc()
		return nil, &pager.CorruptPageError{ID: id, Want: want, Got: got}
	}
	return buf[pageChecksumSize:], nil
}

func (s *pagedStore) alloc(leaf bool) (*node, error) {
	var id pager.PageID
	if k := len(s.freelist); k > 0 {
		id = s.freelist[k-1]
		s.freelist = s.freelist[:k-1]
	} else {
		var err error
		id, err = s.p.Alloc()
		if err != nil {
			return nil, err
		}
	}
	n := &node{id: id, leaf: leaf}
	if err := s.store(n); err != nil {
		return nil, err
	}
	return n, nil
}

func (s *pagedStore) peek(id pager.PageID) (*node, error) {
	buf, err := s.p.Read(id)
	if err != nil {
		return nil, err
	}
	payload, err := s.verify(id, buf)
	if err != nil {
		return nil, err
	}
	return decodeNode(id, payload, s.codec)
}

func (s *pagedStore) store(n *node) error {
	buf, err := n.encode(s.codec)
	if err != nil {
		return err
	}
	if len(buf) > s.nodeSize() {
		return fmt.Errorf("mtree: node %d needs %d bytes, page size %d", n.id, len(buf), s.nodeSize())
	}
	// The checksum must cover the zero padding too (that is what lands
	// on the page), so build the full physical page before summing.
	phys := make([]byte, s.p.PageSize())
	copy(phys[pageChecksumSize:], buf)
	binary.LittleEndian.PutUint32(phys, crc32.Checksum(phys[pageChecksumSize:], castagnoli))
	return s.p.Write(n.id, phys)
}

// free recycles the page for a later alloc. The freelist lives in
// memory only; a restored store recovers it with seedFreelist.
func (s *pagedStore) free(id pager.PageID) {
	s.freelist = append(s.freelist, id)
}

// seedFreelist frees, once, every page of a restored store that an
// uncounted walk from the root does not reach: the pages freed before
// the snapshot. A walk that fails on a faulty or corrupt page, or finds
// a child outside the pager or linked twice, seeds nothing: those pages
// are then wasted space, never reused while still linked.
func (s *pagedStore) seedFreelist() {
	s.seedOnce.Do(func() {
		if s.root == nil {
			return
		}
		reached := make([]bool, s.p.NumPages())
		var walk func(id pager.PageID) bool
		walk = func(id pager.PageID) bool {
			if int(id) >= len(reached) || reached[id] {
				return false
			}
			reached[id] = true
			n, err := s.peek(id)
			for i := 0; err == nil && !n.leaf && i < len(n.entries); i++ {
				if !walk(n.entries[i].Child) {
					return false
				}
			}
			return err == nil
		}
		if root := s.root(); root != pager.InvalidPage && !walk(root) {
			return
		}
		for id, r := range reached {
			if !r {
				s.freelist = append(s.freelist, pager.PageID(id))
			}
		}
	})
}

func (s *pagedStore) numNodes() int {
	s.seedFreelist()
	return s.p.NumPages() - len(s.freelist)
}
