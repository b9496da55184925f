package mtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"mcost/internal/metric"
	"mcost/internal/pager"
)

// Persistence: a paged tree's nodes already live in its pager (a file,
// for pager.File); the only state outside the pages is the small header
// Snapshot writes — root page, height, object count, page size — so a
// tree survives process restarts as one pager file plus one header blob.

// snapshotMagic identifies the header format. v2 appended a CRC32-C
// trailer over magic + payload so truncated or corrupted snapshots fail
// loudly at Restore instead of resurrecting a wrong tree.
const snapshotMagic = "mcost-mtree-v2\n"

// snapshotPayloadSize is the fixed payload after the magic: root page,
// height, object count, page size, next OID.
const snapshotPayloadSize = 4 + 8 + 8 + 8 + 8

// ErrBadSnapshot reports an unreadable Snapshot blob — wrong magic,
// truncated, or failing its checksum. Match with errors.Is.
var ErrBadSnapshot = errors.New("mtree: bad snapshot")

func badSnapshot(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
}

// Snapshot serializes the tree header. Only meaningful for paged trees
// (Options.Pager set): memory-mode trees keep their nodes in RAM, so a
// header alone cannot restore them.
func (t *Tree) Snapshot(w io.Writer) error {
	if _, isPaged := t.store.(*pagedStore); !isPaged {
		return errors.New("mtree: Snapshot requires a paged tree (Options.Pager)")
	}
	buf := make([]byte, 0, len(snapshotMagic)+snapshotPayloadSize+4)
	buf = append(buf, snapshotMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.root))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.height))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.size))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.opt.PageSize))
	buf = binary.LittleEndian.AppendUint64(buf, t.nextOID)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	_, err := w.Write(buf)
	return err
}

// Restore reopens a tree over an existing pager from a Snapshot header.
// space and codec must match the ones the tree was built with; the
// restored tree answers queries immediately (and can keep inserting).
// A truncated, corrupted, or foreign blob returns an error matching
// ErrBadSnapshot.
func Restore(r io.Reader, opt Options) (*Tree, error) {
	if opt.Pager == nil || opt.Codec == nil {
		return nil, errors.New("mtree: Restore requires Options.Pager and Options.Codec")
	}
	header := make([]byte, len(snapshotMagic)+snapshotPayloadSize+4)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, badSnapshot("reading snapshot: %v", err)
	}
	if string(header[:len(snapshotMagic)]) != snapshotMagic {
		return nil, badSnapshot("bad magic %q", header[:len(snapshotMagic)])
	}
	body := header[:len(header)-4]
	want := binary.LittleEndian.Uint32(header[len(header)-4:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, badSnapshot("checksum mismatch (want %08x, got %08x): truncated or corrupted", want, got)
	}
	p := header[len(snapshotMagic):]
	root := pager.PageID(binary.LittleEndian.Uint32(p))
	height := int(binary.LittleEndian.Uint64(p[4:]))
	size := int(binary.LittleEndian.Uint64(p[12:]))
	pageSize := int(binary.LittleEndian.Uint64(p[20:]))
	nextOID := binary.LittleEndian.Uint64(p[28:])
	if opt.PageSize == 0 {
		opt.PageSize = pageSize
	}
	if opt.PageSize != pageSize {
		return nil, fmt.Errorf("mtree: snapshot page size %d != options %d", pageSize, opt.PageSize)
	}
	t, err := New(opt)
	if err != nil {
		return nil, err
	}
	if size > 0 {
		if root == pager.InvalidPage || int(root) >= opt.Pager.NumPages() {
			return nil, badSnapshot("root %d outside pager (%d pages)", root, opt.Pager.NumPages())
		}
		if height <= 0 {
			return nil, badSnapshot("height %d with %d objects", height, size)
		}
	}
	t.root = root
	t.height = height
	t.size = size
	t.nextOID = nextOID
	t.store.(*pagedStore).root = func() pager.PageID { return t.root }
	return t, nil
}

// objectForOID finds the object with the given OID by scanning the
// leaves (uncounted). It exists for tests and tooling; O(n).
func (t *Tree) objectForOID(oid uint64) (metric.Object, bool) {
	if t.root == pager.InvalidPage {
		return nil, false
	}
	var found metric.Object
	var walk func(id pager.PageID) bool
	walk = func(id pager.PageID) bool {
		n, err := t.store.peek(id)
		if err != nil {
			return false
		}
		for _, e := range n.entries {
			if n.leaf {
				if e.OID == oid {
					found = e.Object
					return true
				}
				continue
			}
			if walk(e.Child) {
				return true
			}
		}
		return false
	}
	if walk(t.root) {
		return found, true
	}
	return nil, false
}
