package mem

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var m Memory
	if got := m.Read32(0x1234); got != 0 {
		t.Fatalf("unbacked read = %#x, want 0", got)
	}
	m.Write32(0x1234, 0xdeadbeef)
	if got := m.Read32(0x1234); got != 0xdeadbeef {
		t.Fatalf("Read32 = %#x, want 0xdeadbeef", got)
	}
}

func TestReadWriteWidths(t *testing.T) {
	m := New()
	m.Write8(10, 0xab)
	if got := m.Read8(10); got != 0xab {
		t.Errorf("Read8 = %#x, want 0xab", got)
	}
	m.Write16(20, 0x1234)
	if got := m.Read16(20); got != 0x1234 {
		t.Errorf("Read16 = %#x, want 0x1234", got)
	}
	m.Write32(30, 0x89abcdef)
	if got := m.Read32(30); got != 0x89abcdef {
		t.Errorf("Read32 = %#x, want 0x89abcdef", got)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New()
	m.Write32(0, 0x04030201)
	for i := uint32(0); i < 4; i++ {
		if got := m.Read8(i); got != uint8(i+1) {
			t.Errorf("byte %d = %#x, want %#x", i, got, i+1)
		}
	}
}

func TestPageStraddle(t *testing.T) {
	m := New()
	addr := uint32(PageSize - 2) // 32-bit access straddles first page boundary
	m.Write32(addr, 0xcafebabe)
	if got := m.Read32(addr); got != 0xcafebabe {
		t.Fatalf("straddling Read32 = %#x, want 0xcafebabe", got)
	}
	if got := m.PagesAllocated(); got != 2 {
		t.Fatalf("PagesAllocated = %d, want 2", got)
	}
}

func TestReadWriteBytes(t *testing.T) {
	m := New()
	data := []byte("segmentation hardware")
	m.WriteBytes(0x2000, data)
	if got := string(m.ReadBytes(0x2000, len(data))); got != string(data) {
		t.Fatalf("ReadBytes = %q, want %q", got, data)
	}
}

func TestReset(t *testing.T) {
	m := New()
	m.Write32(0x100, 42)
	m.Reset()
	if got := m.Read32(0x100); got != 0 {
		t.Fatalf("after Reset, Read32 = %d, want 0", got)
	}
	if got := m.PagesAllocated(); got != 0 {
		t.Fatalf("after Reset, PagesAllocated = %d, want 0", got)
	}
}

func TestSparseAllocation(t *testing.T) {
	m := New()
	m.Write8(0, 1)
	m.Write8(0xfffffff0, 2) // far end of the 32-bit space
	if got := m.PagesAllocated(); got != 2 {
		t.Fatalf("PagesAllocated = %d, want 2", got)
	}
}

func TestQuickWord32RoundTrip(t *testing.T) {
	m := New()
	f := func(addr, v uint32) bool {
		m.Write32(addr, v)
		return m.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDisjointWritesIndependent(t *testing.T) {
	f := func(a, b uint32, va, vb uint32) bool {
		if a == b || (a < b && b-a < 4) || (b < a && a-b < 4) {
			return true // overlapping accesses are allowed to interfere
		}
		m := New()
		m.Write32(a, va)
		m.Write32(b, vb)
		return m.Read32(a) == va && m.Read32(b) == vb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// denseForTest returns a small dense memory: lo arena [0, 2 pages),
// stack window [0x10000, 0x10000+1 page).
func denseForTest() *Memory {
	return NewDense(2*PageSize, 0x10000, PageSize)
}

func TestDenseBasicWidths(t *testing.T) {
	m := denseForTest()
	m.Write8(10, 0xab)
	m.Write16(20, 0x1234)
	m.Write32(30, 0x89abcdef)
	if got := m.Read8(10); got != 0xab {
		t.Errorf("Read8 = %#x, want 0xab", got)
	}
	if got := m.Read16(20); got != 0x1234 {
		t.Errorf("Read16 = %#x, want 0x1234", got)
	}
	if got := m.Read32(30); got != 0x89abcdef {
		t.Errorf("Read32 = %#x, want 0x89abcdef", got)
	}
	// Stack window.
	m.Write32(0x10004, 0xfeedface)
	if got := m.Read32(0x10004); got != 0xfeedface {
		t.Errorf("stack Read32 = %#x, want 0xfeedface", got)
	}
}

func TestDenseArenaEdgeStraddles(t *testing.T) {
	m := denseForTest()
	loEnd := uint32(2 * PageSize)
	// Each access has its first bytes in the lo arena and its last bytes
	// in the sparse spill.
	for _, tc := range []struct {
		addr uint32
		n    uint32
	}{
		{loEnd - 1, 2}, {loEnd - 1, 4}, {loEnd - 2, 4}, {loEnd - 3, 4},
	} {
		var want uint32 = 0x04030201
		switch tc.n {
		case 2:
			m.Write16(tc.addr, uint16(want))
			if got := uint32(m.Read16(tc.addr)); got != want&0xffff {
				t.Errorf("Read16(%#x) = %#x, want %#x", tc.addr, got, want&0xffff)
			}
		case 4:
			m.Write32(tc.addr, want)
			if got := m.Read32(tc.addr); got != want {
				t.Errorf("Read32(%#x) = %#x, want %#x", tc.addr, got, want)
			}
		}
		// Byte-level agreement across the edge.
		for i := uint32(0); i < tc.n; i++ {
			if got := m.Read8(tc.addr + i); got != uint8(0x01+i) {
				t.Errorf("Read8(%#x+%d) = %#x, want %#x", tc.addr, i, got, 0x01+i)
			}
		}
	}
}

func TestDenseStackWindowEdges(t *testing.T) {
	m := denseForTest()
	// Straddle into the stack window from below (sparse -> hi arena) and
	// out the top (hi arena -> sparse).
	for _, addr := range []uint32{0x10000 - 2, 0x10000 - 1, 0x10000 + PageSize - 2, 0x10000 + PageSize - 1} {
		m.Write32(addr, 0xa1b2c3d4)
		if got := m.Read32(addr); got != 0xa1b2c3d4 {
			t.Fatalf("Read32(%#x) = %#x, want 0xa1b2c3d4", addr, got)
		}
	}
}

func TestDenseUnbackedReadsZero(t *testing.T) {
	m := denseForTest()
	for _, addr := range []uint32{0, 2*PageSize - 1, 2 * PageSize, 0xfff0, 0x10000, 0x20000, 0xfffffff0} {
		if got := m.Read32(addr); got != 0 {
			t.Fatalf("unbacked Read32(%#x) = %#x, want 0", addr, got)
		}
		if got := m.Read8(addr); got != 0 {
			t.Fatalf("unbacked Read8(%#x) = %#x, want 0", addr, got)
		}
	}
}

func TestDenseReset(t *testing.T) {
	m := denseForTest()
	m.Write32(0x40, 42)    // lo arena
	m.Write32(0x10040, 43) // stack window
	m.Write32(0x20000, 44) // sparse spill
	m.Reset()
	for _, addr := range []uint32{0x40, 0x10040, 0x20000} {
		if got := m.Read32(addr); got != 0 {
			t.Fatalf("after Reset, Read32(%#x) = %d, want 0", addr, got)
		}
	}
}

// TestDenseSparseEquivalence drives a dense and a sparse memory with the
// same pseudo-random access sequence and requires identical results. The
// address distribution clusters around the arena edges so straddles and
// spills are exercised.
func TestDenseSparseEquivalence(t *testing.T) {
	dense := denseForTest()
	sparse := New()
	// Deterministic LCG so the test is reproducible.
	state := uint32(12345)
	next := func() uint32 {
		state = state*1664525 + 1013904223
		return state
	}
	hotspots := []uint32{0, PageSize, 2 * PageSize, 0x10000 - 4, 0x10000, 0x10000 + PageSize - 4, 0x30000}
	addrOf := func(r uint32) uint32 {
		base := hotspots[r%uint32(len(hotspots))]
		return base + (r>>8)%16 - 8 + 4 // wander +-8 around the hotspot, offset to avoid underflow at 0
	}
	for i := 0; i < 20000; i++ {
		r := next()
		addr := addrOf(r)
		v := next()
		switch r % 6 {
		case 0:
			dense.Write8(addr, uint8(v))
			sparse.Write8(addr, uint8(v))
		case 1:
			dense.Write16(addr, uint16(v))
			sparse.Write16(addr, uint16(v))
		case 2:
			dense.Write32(addr, v)
			sparse.Write32(addr, v)
		case 3:
			if g, w := dense.Read8(addr), sparse.Read8(addr); g != w {
				t.Fatalf("op %d: Read8(%#x) dense=%#x sparse=%#x", i, addr, g, w)
			}
		case 4:
			if g, w := dense.Read16(addr), sparse.Read16(addr); g != w {
				t.Fatalf("op %d: Read16(%#x) dense=%#x sparse=%#x", i, addr, g, w)
			}
		case 5:
			if g, w := dense.Read32(addr), sparse.Read32(addr); g != w {
				t.Fatalf("op %d: Read32(%#x) dense=%#x sparse=%#x", i, addr, g, w)
			}
		}
	}
	// Final byte-for-byte sweep over every touched region.
	for _, base := range hotspots {
		lo := base - 16 + 16 // clamp below to avoid uint wrap at 0
		if base >= 16 {
			lo = base - 16
		}
		for a := lo; a < base+32; a++ {
			if g, w := dense.Read8(a), sparse.Read8(a); g != w {
				t.Fatalf("sweep: Read8(%#x) dense=%#x sparse=%#x", a, g, w)
			}
		}
	}
}

func TestQuickDenseWord32RoundTrip(t *testing.T) {
	m := denseForTest()
	f := func(addr, v uint32) bool {
		m.Write32(addr, v)
		return m.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestArenaEdgeWalk walks every address within 8 bytes of each arena edge
// and every address of the last page of the 32-bit space, writing and
// reading each width at each address, and requires every result to match
// a byte-wise reference. The lo arena is page-aligned in one geometry and
// ends mid-page and mid-word in the other; the hi arena's top edge is
// likewise odd in the second. Together they pin that an in-page word
// starting outside both arenas never reaches into one, including around
// the wrap past 0xffffffff.
func TestArenaEdgeWalk(t *testing.T) {
	for _, geo := range []Geometry{
		{LoSize: 2 * PageSize, HiBase: 0x10000, HiSize: PageSize},
		{LoSize: 2*PageSize + 5, HiBase: 0x10000, HiSize: PageSize + 3},
	} {
		m := NewDense(geo.LoSize, geo.HiBase, geo.HiSize)
		ref := map[uint32]byte{}
		refRead := func(a uint32, n int) uint32 {
			var v uint32
			for i := 0; i < n; i++ {
				v |= uint32(ref[a+uint32(i)]) << (8 * i)
			}
			return v
		}
		var addrs []uint32
		for _, e := range []uint32{0, geo.LoSize, geo.HiBase, geo.HiBase + geo.HiSize} {
			for d := uint32(0); d <= 16; d++ {
				addrs = append(addrs, e-8+d)
			}
		}
		for a := uint32(0xfffff000 - 8); a != 0; a++ {
			addrs = append(addrs, a)
		}
		check := func(a uint32) {
			t.Helper()
			if g, w := uint32(m.Read8(a)), refRead(a, 1); g != w {
				t.Fatalf("%+v: Read8(%#x) = %#x, want %#x", geo, a, g, w)
			}
			if g, w := uint32(m.Read16(a)), refRead(a, 2); g != w {
				t.Fatalf("%+v: Read16(%#x) = %#x, want %#x", geo, a, g, w)
			}
			if g, w := m.Read32(a), refRead(a, 4); g != w {
				t.Fatalf("%+v: Read32(%#x) = %#x, want %#x", geo, a, g, w)
			}
		}
		v := uint32(0x01020304)
		for _, a := range addrs {
			for _, n := range []int{1, 2, 4} {
				check(a) // neighbours written earlier may overlap this word
				v = v*1664525 + 1013904223
				switch n {
				case 1:
					m.Write8(a, uint8(v))
				case 2:
					m.Write16(a, uint16(v))
				case 4:
					m.Write32(a, v)
				}
				for i := 0; i < n; i++ {
					ref[a+uint32(i)] = uint8(v >> (8 * i))
				}
				check(a)
			}
		}
		for _, a := range addrs {
			check(a)
		}
	}
}

// TestPageTableDirectories spreads writes over several 4 MiB directories
// and pins the page count, Reset dropping every page, and the table
// being reusable afterwards.
func TestPageTableDirectories(t *testing.T) {
	var m Memory
	for i := uint32(0); i < 4; i++ {
		a := i<<22 + 0x1ffe // page-straddling word in each directory
		m.Write32(a, 0xa0b0c0d0+i)
		if got := m.Read32(a); got != 0xa0b0c0d0+i {
			t.Fatalf("Read32(%#x) = %#x", a, got)
		}
	}
	if got := m.PagesAllocated(); got != 8 {
		t.Fatalf("PagesAllocated = %d, want 8", got)
	}
	m.Reset()
	if got := m.PagesAllocated(); got != 0 {
		t.Fatalf("after Reset, PagesAllocated = %d, want 0", got)
	}
	if got := m.Read32(3<<22 + 0x1ffe); got != 0 {
		t.Fatalf("after Reset, Read32 = %#x, want 0", got)
	}
	m.Write8(0xffffffff, 7)
	if got, n := m.Read8(0xffffffff), m.PagesAllocated(); got != 7 || n != 1 {
		t.Fatalf("after reuse: Read8 = %d, PagesAllocated = %d; want 7, 1", got, n)
	}
}

func TestSparseWord(t *testing.T) {
	m := NewDense(2*PageSize+5, 0x10000, PageSize)
	m.Write32(0x20000, 0x11223344) // materialise a sparse page
	m.Write8(2*PageSize+5, 1)      // the page the lo arena ends in
	for _, tc := range []struct {
		addr uint32
		ok   bool
	}{
		{0x20000, true},
		{0x20000 + PageSize - 4, true},
		{0x20000 + PageSize - 3, false}, // crosses into the next page
		{0x30000, false},                // never written
		{2*PageSize + 5, true},
		{2*PageSize + 4, false}, // first byte in the lo arena
		{0x10000, false},        // stack window
		{0x10000 - 4, false},    // page never written
	} {
		if p := m.SparseWord(tc.addr); (p != nil) != tc.ok {
			t.Errorf("SparseWord(%#x) = %v, want page %v", tc.addr, p != nil, tc.ok)
		}
	}
	p := m.SparseWord(0x20000)
	if got := binary.LittleEndian.Uint32(p[0:]); got != 0x11223344 {
		t.Fatalf("word through SparseWord = %#x, want 0x11223344", got)
	}
	binary.LittleEndian.PutUint32(p[8:], 0x55667788)
	if got := m.Read32(0x20008); got != 0x55667788 {
		t.Fatalf("Read32 after in-place write = %#x, want 0x55667788", got)
	}
}

// BenchmarkSparseWord32 measures 32-bit accesses outside both arenas of a
// default-sized dense memory, strided over 64 KiB of materialised sparse
// pages: the exact Read32/Write32 path and the SparseWord accessor the
// tier-2 run loop inlines.
func BenchmarkSparseWord32(b *testing.B) {
	const base, span = 32 << 20, 64 << 10
	m := NewDense(16<<20, 0x7fdf0000, 2<<20)
	for a := uint32(0); a < span; a += PageSize {
		m.Write32(base+a, a)
	}
	b.Run("Read32", func(b *testing.B) {
		var s uint32
		for i := 0; i < b.N; i++ {
			s += m.Read32(base + uint32(i*4)%span)
		}
		sinkWord = s
	})
	b.Run("Write32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Write32(base+uint32(i*4)%span, uint32(i))
		}
	})
	b.Run("SparseWord", func(b *testing.B) {
		var s uint32
		for i := 0; i < b.N; i++ {
			a := base + uint32(i*4)%span
			if p := m.SparseWord(a); p != nil {
				s += binary.LittleEndian.Uint32(p[a%PageSize:])
			}
		}
		sinkWord = s
	})
}

var sinkWord uint32
