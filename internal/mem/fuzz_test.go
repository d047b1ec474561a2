package mem_test

import (
	"encoding/binary"
	"testing"

	"cash/internal/mem"
	"cash/internal/vm"
)

// fuzzOpSize is the encoded size of one FuzzMemory operation: a kind
// byte, a hotspot selector byte, a little-endian int16 offset from the
// hotspot and a little-endian uint32 value.
const fuzzOpSize = 8

// fuzzGeometries are the layouts FuzzMemory drives in lockstep: purely
// sparse, the layout vm.GeometryFor gives a compiled program, and an
// odd-sized one whose arena edges split pages and words.
func fuzzGeometries() []mem.Geometry {
	return []mem.Geometry{
		{},
		vm.GeometryFor(&vm.Program{HeapBase: 0x101000, StackTop: 0x7fff0000}),
		{LoSize: 5*mem.PageSize + 3, HiBase: 0x40001234, HiSize: 2*mem.PageSize + 7},
	}
}

// fuzzHotspots are the addresses operations cluster around: page and
// 4 MiB directory boundaries, both ends of the address space, and every
// arena edge of every fuzzed geometry.
func fuzzHotspots(gs []mem.Geometry) []uint32 {
	hs := []uint32{0, mem.PageSize, 1 << 22, 3 << 22, 0x80000000, 0xfffff000, 0xffffffff}
	for _, g := range gs {
		hs = append(hs, g.LoSize, g.HiBase, g.HiBase+g.HiSize)
	}
	return hs
}

// fuzzTarget is one memory under test with its byte-wise reference.
type fuzzTarget struct {
	m       *mem.Memory
	g       mem.Geometry // as installed: HiBase page-truncated
	ref     map[uint32]byte
	written map[uint32]bool // sparse pages written since the last Reset
}

func (ft *fuzzTarget) reset() {
	ft.m.Reset()
	clear(ft.ref)
	clear(ft.written)
}

func (ft *fuzzTarget) inArena(a uint32) bool {
	return a < ft.g.LoSize || a-ft.g.HiBase < ft.g.HiSize
}

func (ft *fuzzTarget) refWrite(a uint32, v []byte) {
	for i, b := range v {
		ft.ref[a+uint32(i)] = b
		if !ft.inArena(a + uint32(i)) {
			ft.written[(a+uint32(i))/mem.PageSize] = true
		}
	}
}

func (ft *fuzzTarget) refRead(a uint32, n int) uint32 {
	var v uint32
	for i := 0; i < n; i++ {
		v |= uint32(ft.ref[a+uint32(i)]) << (8 * i)
	}
	return v
}

// FuzzMemory decodes an operation stream — Read/Write 8/16/32,
// ReadBytes/WriteBytes and Reset — and runs it against every fuzzed
// geometry and a map[uint32]byte reference. Every read must agree with
// the reference byte for byte, and the sparse page count must equal the
// number of distinct non-arena pages written since the last Reset.
func FuzzMemory(f *testing.F) {
	var targets []*fuzzTarget
	var gs []mem.Geometry
	for _, g := range fuzzGeometries() {
		m := mem.NewDense(g.LoSize, g.HiBase, g.HiSize)
		targets = append(targets, &fuzzTarget{m: m, g: m.Geometry(), ref: map[uint32]byte{}, written: map[uint32]bool{}})
		gs = append(gs, m.Geometry())
	}
	hot := fuzzHotspots(gs)
	op := func(kind, sel byte, off int16, v uint32) []byte {
		b := []byte{kind, sel, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint16(b[2:], uint16(off))
		binary.LittleEndian.PutUint32(b[4:], v)
		return b
	}
	f.Add(append(op(5, 1, -2, 0xdeadbeef), op(4, 1, -2, 0)...))
	f.Add(append(append(op(7, 5, -3, 0x01020304), op(6, 5, -8, 40)...), op(8, 0, 0, 0)...))
	f.Add(append(op(3, 6, -1, 0xbeef), op(2, 6, -1, 0)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ft := range targets {
			ft.reset()
		}
		for i := 0; i+fuzzOpSize <= len(data); i += fuzzOpSize {
			kind := data[i] % 9
			a := hot[int(data[i+1])%len(hot)] + uint32(int32(int16(binary.LittleEndian.Uint16(data[i+2:]))))
			v := binary.LittleEndian.Uint32(data[i+4:])
			for gi, ft := range targets {
				m := ft.m
				var got, want uint32
				switch kind {
				case 0:
					got, want = uint32(m.Read8(a)), ft.refRead(a, 1)
				case 1:
					m.Write8(a, uint8(v))
					ft.refWrite(a, []byte{uint8(v)})
				case 2:
					got, want = uint32(m.Read16(a)), ft.refRead(a, 2)
				case 3:
					m.Write16(a, uint16(v))
					ft.refWrite(a, binary.LittleEndian.AppendUint16(nil, uint16(v)))
				case 4:
					got, want = m.Read32(a), ft.refRead(a, 4)
				case 5:
					m.Write32(a, v)
					ft.refWrite(a, binary.LittleEndian.AppendUint32(nil, v))
				case 6:
					b := m.ReadBytes(a, int(v%64))
					for j := range b {
						if w := ft.ref[a+uint32(j)]; b[j] != w {
							t.Fatalf("geometry %d op %d: ReadBytes(%#x)[%d] = %#x, want %#x", gi, i/fuzzOpSize, a, j, b[j], w)
						}
					}
				case 7:
					b := make([]byte, v%64)
					for j := range b {
						b[j] = byte(v>>(8*(j%4))) + byte(j)
					}
					m.WriteBytes(a, b)
					ft.refWrite(a, b)
				case 8:
					ft.reset()
					if n := m.PagesAllocated(); n != 0 {
						t.Fatalf("geometry %d op %d: PagesAllocated after Reset = %d", gi, i/fuzzOpSize, n)
					}
				}
				if got != want {
					t.Fatalf("geometry %d op %d kind %d at %#x: got %#x, want %#x", gi, i/fuzzOpSize, kind, a, got, want)
				}
			}
		}
		for gi, ft := range targets {
			for a, w := range ft.ref {
				if g := ft.m.Read8(a); g != w {
					t.Fatalf("geometry %d: final Read8(%#x) = %#x, want %#x", gi, a, g, w)
				}
			}
			if g, w := ft.m.PagesAllocated(), len(ft.written); g != w {
				t.Fatalf("geometry %d: PagesAllocated = %d, want %d", gi, g, w)
			}
		}
	})
}
