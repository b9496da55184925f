package mtree

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"unsafe"

	"mcost/internal/metric"
	"mcost/internal/pager"
)

// Arena slab file: the frozen columnar layout serialized so it can be
// memory-mapped back with zero parsing. Layout (all little-endian,
// every section 8-byte aligned so the typed views are aligned loads):
//
//	[0:8)    magic "MCARENA1"
//	[8:16)   0x0807060504030201 as uint64 — endianness/width check
//	[16]     kind (kernelVector / kernelEdit / kernelHamming)
//	[17:20)  zero padding
//	[20:24)  uint32 dim (vector kinds; else 0)
//	[24:28)  uint32 node count
//	[28:32)  uint32 entry count
//	[32:40)  uint64 string-blob length (string kinds; else 0)
//	[40:64)  zero padding
//
// then, in order, each padded to a multiple of 8 bytes:
//
//	leaf       node count × u8 (0/1)
//	start      node count × i32
//	end        node count × i32
//	child      entry count × i32
//	parentDist entry count × f64
//	radius     entry count × f64
//	oid        entry count × u64
//	vecs       entry count × dim × f64        (kernelVector)
//	strOff     (entry count + 1) × u32        (string kinds)
//	strBlob    string-blob bytes              (string kinds)
//
// Lifetime/aliasing rules (see DESIGN.md): after opening, the numeric
// slabs and vector result objects are views INTO the mapping — the
// mapping must outlive every Match.Object handed out, which is why a
// thaw keeps it alive and only Arena.Close unmaps. The string blob is
// copied out at open (one allocation), so string results never alias
// the map. Generic-kind arenas (custom domains or distances) have no
// file format and must freeze in memory.

const (
	arenaMagic  = "MCARENA1"
	arenaEndian = uint64(0x0807060504030201)
	arenaHdrLen = 64
)

// remap serializes the built arena to path (a private unlinked temp
// file when empty) and swaps the slabs for read-only views of the map.
func (a *Arena) remap(path string) error {
	if a.kind == kernelGeneric {
		return fmt.Errorf("mtree: arena mmap supports the canonical Lp, edit, and hamming metrics; space %q (custom distance or domain) must freeze in memory", a.space.Name)
	}
	remove := false
	if path == "" {
		f, err := os.CreateTemp("", "mcost-arena-*.slab")
		if err != nil {
			return err
		}
		path = f.Name()
		if err := f.Close(); err != nil {
			return err
		}
		remove = true
	}
	if err := a.writeSlabFile(path); err != nil {
		return err
	}
	m, err := pager.MapFile(path)
	if err != nil {
		return err
	}
	if remove {
		// The mapping keeps the inode alive; the name can go away now.
		if err := os.Remove(path); err != nil {
			_ = m.Close()
			return err
		}
	}
	if err := a.attachMapping(m); err != nil {
		_ = m.Close()
		return err
	}
	return nil
}

func pad8(n int) int { return (n + 7) &^ 7 }

func (a *Arena) writeSlabFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)

	var strBlobLen uint64
	if a.kind == kernelEdit || a.kind == kernelHamming {
		for _, o := range a.objs {
			strBlobLen += uint64(len(o.(string)))
		}
	}

	hdr := make([]byte, arenaHdrLen)
	copy(hdr, arenaMagic)
	binary.LittleEndian.PutUint64(hdr[8:], arenaEndian)
	hdr[16] = byte(a.kind)
	binary.LittleEndian.PutUint32(hdr[20:], uint32(a.dim))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(a.leaf)))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(len(a.oid)))
	binary.LittleEndian.PutUint64(hdr[32:], strBlobLen)
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	written := 0
	section := func(write func() error, rawLen int) error {
		if err := write(); err != nil {
			return err
		}
		written += rawLen
		for ; written%8 != 0; written++ {
			if err := w.WriteByte(0); err != nil {
				return err
			}
		}
		return nil
	}
	var buf [8]byte
	writeU32s := func(get func(i int) uint32, n int) func() error {
		return func() error {
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint32(buf[:4], get(i))
				if _, err := w.Write(buf[:4]); err != nil {
					return err
				}
			}
			return nil
		}
	}
	writeU64s := func(get func(i int) uint64, n int) func() error {
		return func() error {
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(buf[:8], get(i))
				if _, err := w.Write(buf[:8]); err != nil {
					return err
				}
			}
			return nil
		}
	}

	nn, ne := len(a.leaf), len(a.oid)
	if err := section(func() error {
		for _, l := range a.leaf {
			b := byte(0)
			if l {
				b = 1
			}
			if err := w.WriteByte(b); err != nil {
				return err
			}
		}
		return nil
	}, nn); err != nil {
		return err
	}
	if err := section(writeU32s(func(i int) uint32 { return uint32(a.start[i]) }, nn), nn*4); err != nil {
		return err
	}
	if err := section(writeU32s(func(i int) uint32 { return uint32(a.end[i]) }, nn), nn*4); err != nil {
		return err
	}
	if err := section(writeU32s(func(i int) uint32 { return uint32(a.child[i]) }, ne), ne*4); err != nil {
		return err
	}
	if err := section(writeU64s(func(i int) uint64 { return floatBits(a.parentDist[i]) }, ne), ne*8); err != nil {
		return err
	}
	if err := section(writeU64s(func(i int) uint64 { return floatBits(a.radius[i]) }, ne), ne*8); err != nil {
		return err
	}
	if err := section(writeU64s(func(i int) uint64 { return a.oid[i] }, ne), ne*8); err != nil {
		return err
	}
	switch a.kind {
	case kernelVector:
		if err := section(writeU64s(func(i int) uint64 { return floatBits(a.vecs[i]) }, len(a.vecs)), len(a.vecs)*8); err != nil {
			return err
		}
	case kernelEdit, kernelHamming:
		off := uint32(0)
		if err := section(writeU32s(func(i int) uint32 {
			if i == 0 {
				off = 0
			} else {
				off += uint32(len(a.objs[i-1].(string)))
			}
			return off
		}, ne+1), (ne+1)*4); err != nil {
			return err
		}
		if err := section(func() error {
			for _, o := range a.objs {
				if _, err := w.WriteString(o.(string)); err != nil {
					return err
				}
			}
			return nil
		}, int(strBlobLen)); err != nil {
			return err
		}
	}
	return w.Flush()
}

func floatBits(f float64) uint64 {
	return *(*uint64)(unsafe.Pointer(&f))
}

// attachMapping validates the slab file and swaps the arena's slabs for
// typed views into it.
func (a *Arena) attachMapping(m *pager.Mapping) error {
	data := m.Data
	if len(data) < arenaHdrLen || string(data[:8]) != arenaMagic {
		return fmt.Errorf("mtree: not an arena slab file")
	}
	if binary.LittleEndian.Uint64(data[8:]) != arenaEndian {
		return fmt.Errorf("mtree: arena slab file has foreign byte order")
	}
	kind := kernelKind(data[16])
	dim := int(binary.LittleEndian.Uint32(data[20:]))
	nn := int(binary.LittleEndian.Uint32(data[24:]))
	ne := int(binary.LittleEndian.Uint32(data[28:]))
	strBlobLen := int(binary.LittleEndian.Uint64(data[32:]))
	if kind != a.kind || dim != a.dim || nn != len(a.leaf) || ne != len(a.oid) {
		return fmt.Errorf("mtree: arena slab file does not match the frozen tree (kind %d dim %d nodes %d entries %d)", kind, dim, nn, ne)
	}

	off := arenaHdrLen
	take := func(rawLen int) ([]byte, error) {
		if off+rawLen > len(data) {
			return nil, fmt.Errorf("mtree: arena slab file truncated at offset %d", off)
		}
		sec := data[off : off+rawLen]
		off += pad8(rawLen)
		return sec, nil
	}

	leafSec, err := take(nn)
	if err != nil {
		return err
	}
	leaf := make([]bool, nn)
	for i := range leaf {
		leaf[i] = leafSec[i] != 0
	}
	startSec, err := take(nn * 4)
	if err != nil {
		return err
	}
	endSec, err := take(nn * 4)
	if err != nil {
		return err
	}
	childSec, err := take(ne * 4)
	if err != nil {
		return err
	}
	pdSec, err := take(ne * 8)
	if err != nil {
		return err
	}
	radSec, err := take(ne * 8)
	if err != nil {
		return err
	}
	oidSec, err := take(ne * 8)
	if err != nil {
		return err
	}

	a.leaf = leaf
	a.start = i32View(startSec)
	a.end = i32View(endSec)
	a.child = i32View(childSec)
	a.parentDist = f64View(pdSec)
	a.radius = f64View(radSec)
	a.oid = u64View(oidSec)

	objs := make([]metric.Object, ne)
	switch a.kind {
	case kernelVector:
		vecSec, err := take(ne * dim * 8)
		if err != nil {
			return err
		}
		a.vecs = f64View(vecSec)
		for e := 0; e < ne; e++ {
			// Result objects are views into the map — the aliasing rule the
			// file-format comment and DESIGN.md spell out.
			objs[e] = metric.Vector(a.vecs[e*dim : (e+1)*dim])
		}
	case kernelEdit, kernelHamming:
		offSec, err := take((ne + 1) * 4)
		if err != nil {
			return err
		}
		blobSec, err := take(strBlobLen)
		if err != nil {
			return err
		}
		offs := u32View(offSec)
		// One copy of the whole blob: substrings of blob share it and are
		// ordinary immutable Go strings, independent of the mapping.
		blob := string(blobSec)
		for e := 0; e < ne; e++ {
			objs[e] = blob[offs[e]:offs[e+1]]
		}
	}
	a.objs = objs
	a.mapping = m
	return nil
}

func f64View(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func i32View(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func u32View(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func u64View(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}
