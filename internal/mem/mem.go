// Package mem provides a model of 32-bit physical memory.
//
// The simulated machine addresses a full 4 GiB physical space, but real
// workloads touch only a few megabytes in two clusters: the low
// code/data/heap span and the stack window just below the stack top. Those
// two regions can be backed by contiguous []byte arenas (NewDense), where
// an access is a bounds check and an array index. Addresses outside the
// arenas spill to a lazily-allocated sparse store, so the full 4 GiB space
// keeps working: a two-level page table whose directory entries each
// cover 4 MiB with 1024 page pointers, so finding a sparse page is two
// indexed loads, never a hash.
//
// Physical memory itself never faults: protection is enforced above it,
// by segmentation (internal/x86seg) and paging (internal/paging).
package mem

import "encoding/binary"

// PageSize is the allocation granule of the sparse store. It matches the
// x86 page size so the paging layer maps 1:1 onto backing chunks.
const PageSize = 4096

// The sparse page table splits a 32-bit address into a 10-bit directory
// index, a 10-bit page index and the 12-bit page offset.
const (
	pageShift = 12
	dirShift  = 22
	dirPages  = 1 << (dirShift - pageShift)
)

// pageDir maps the pages of one 4 MiB directory span; nil entries are
// pages never written.
type pageDir [dirPages]*[PageSize]byte

// Memory is a byte-addressable 32-bit physical memory: up to two dense
// arenas plus a sparse page table for everything else. The zero value is
// a purely sparse memory, ready to use. Memory is not safe for concurrent
// use.
type Memory struct {
	// lo backs [0, len(lo)); lo4 and lo2 are len(lo)-3 and len(lo)-1,
	// precomputed so the word fast paths are a single compare (they are 0
	// when the arena is absent or too small, which safely fails the
	// unsigned compare).
	lo  []byte
	lo4 uint32
	lo2 uint32

	// hi backs [hiBase, hiBase+len(hi)) — the stack window.
	hi     []byte
	hiBase uint32
	hi4    uint32
	hi2    uint32

	// Dirty watermarks bound the spans Reset must zero. The lo arena is
	// written from the bottom up (code, data, heap), so one high-water
	// mark — the end of the highest write — covers it. The hi arena is a
	// stack growing down from the arena top, so a low-water mark — the
	// offset of the lowest write — covers [loMark, len(hi)). Every write
	// fast path is fully inside one arena, so the marks are exact, not
	// conservative.
	loDirty uint32 // lo[:loDirty] may be nonzero
	hiDirty uint32 // hi[hiDirty:] may be nonzero

	// dir is the sparse page table, indexed by addr>>dirShift; nil
	// entries are directories with no page yet. npages counts the pages
	// materialised across all directories.
	dir    [1 << (32 - dirShift)]*pageDir
	npages int
}

// Geometry identifies the arena layout of a dense memory: two Memory
// values with equal Geometry are interchangeable as machine backing
// stores (after Reset). The zero Geometry is a purely sparse memory.
type Geometry struct {
	LoSize uint32
	HiBase uint32
	HiSize uint32
}

// Geometry returns the arena layout this memory was built with. HiBase
// is the page-truncated base actually in use, so feeding the result back
// through NewDense reproduces an identical layout.
func (m *Memory) Geometry() Geometry {
	return Geometry{LoSize: uint32(len(m.lo)), HiBase: m.hiBase, HiSize: uint32(len(m.hi))}
}

// New returns an empty, purely sparse physical memory.
func New() *Memory {
	return &Memory{}
}

// NewDense returns a memory whose address ranges [0, loSize) and
// [hiBase, hiBase+hiSize) are arena-backed. Either size may be zero to
// omit that arena. hiBase is truncated to a page boundary so the arena
// edge never splits a naturally aligned word.
func NewDense(loSize uint32, hiBase, hiSize uint32) *Memory {
	m := New()
	if loSize > 0 {
		m.lo = make([]byte, loSize)
		m.recompute()
	}
	if hiSize > 0 {
		m.hi = make([]byte, hiSize)
		m.hiBase = hiBase &^ (PageSize - 1)
		m.recompute()
	}
	m.hiDirty = uint32(len(m.hi))
	return m
}

func (m *Memory) recompute() {
	m.lo4, m.lo2, m.hi4, m.hi2 = 0, 0, 0, 0
	if len(m.lo) >= 4 {
		m.lo4 = uint32(len(m.lo) - 3)
	}
	if len(m.lo) >= 2 {
		m.lo2 = uint32(len(m.lo) - 1)
	}
	if len(m.hi) >= 4 {
		m.hi4 = uint32(len(m.hi) - 3)
	}
	if len(m.hi) >= 2 {
		m.hi2 = uint32(len(m.hi) - 1)
	}
}

// page returns the sparse page holding addr, or nil when it was never
// written and create is false.
func (m *Memory) page(addr uint32, create bool) *[PageSize]byte {
	d := m.dir[addr>>dirShift]
	if d == nil {
		if !create {
			return nil
		}
		d = new(pageDir)
		m.dir[addr>>dirShift] = d
	}
	p := d[addr>>pageShift%dirPages]
	if p == nil && create {
		p = new([PageSize]byte)
		d[addr>>pageShift%dirPages] = p
		m.npages++
	}
	return p
}

// SparseWord returns the sparse page holding the 4-byte word at addr, for
// callers that read or write that word in place: it is non-nil only when
// the word lies wholly inside one page, outside both arenas, and the page
// already exists. Every other access must take Read32/Write32. It is
// small enough to inline into the tier-2 run loop's fallback arms.
func (m *Memory) SparseWord(addr uint32) *[PageSize]byte {
	if !m.inSparsePage(addr) {
		return nil
	}
	if d := m.dir[addr>>dirShift]; d != nil {
		return d[addr>>pageShift%dirPages]
	}
	return nil
}

// Read8 returns the byte at addr. Unbacked memory reads as zero.
func (m *Memory) Read8(addr uint32) uint8 {
	if addr < uint32(len(m.lo)) {
		return m.lo[addr]
	}
	if d := addr - m.hiBase; d < uint32(len(m.hi)) {
		return m.hi[d]
	}
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr%PageSize]
}

// Write8 stores one byte at addr.
func (m *Memory) Write8(addr uint32, v uint8) {
	if addr < uint32(len(m.lo)) {
		m.lo[addr] = v
		if addr >= m.loDirty {
			m.loDirty = addr + 1
		}
		return
	}
	if d := addr - m.hiBase; d < uint32(len(m.hi)) {
		m.hi[d] = v
		if d < m.hiDirty {
			m.hiDirty = d
		}
		return
	}
	m.page(addr, true)[addr%PageSize] = v
}

// Read16 returns the little-endian 16-bit value at addr.
// The access may straddle a page or arena boundary.
func (m *Memory) Read16(addr uint32) uint16 {
	if addr < m.lo2 {
		return binary.LittleEndian.Uint16(m.lo[addr:])
	}
	if d := addr - m.hiBase; d < m.hi2 {
		return binary.LittleEndian.Uint16(m.hi[d:])
	}
	return uint16(m.Read8(addr)) | uint16(m.Read8(addr+1))<<8
}

// Write16 stores v little-endian at addr.
func (m *Memory) Write16(addr uint32, v uint16) {
	if addr < m.lo2 {
		binary.LittleEndian.PutUint16(m.lo[addr:], v)
		if addr+2 > m.loDirty {
			m.loDirty = addr + 2
		}
		return
	}
	if d := addr - m.hiBase; d < m.hi2 {
		binary.LittleEndian.PutUint16(m.hi[d:], v)
		if d < m.hiDirty {
			m.hiDirty = d
		}
		return
	}
	m.Write8(addr, uint8(v))
	m.Write8(addr+1, uint8(v>>8))
}

// Read32Fast, Write32Fast, Read8Fast and Write8Fast are the inlinable
// arena fast paths for the tier-2 superblock engine: each handles only
// accesses that land wholly inside a dense arena and reports false
// otherwise, so the caller falls back to the full accessor. Their
// behaviour (including the dirty watermarks) is a strict subset of the
// corresponding Read/Write method.

// DenseWindows exposes the arena slices and their word-access bounds for
// callers that fuse the arena bounds check into their own compare (the
// tier-2 run loop). Conventions match the internal fast paths: a 4-byte
// access at address a is wholly inside the lo arena iff a < lo4, and
// wholly inside the hi arena iff a-hiBase < hi4. The slices alias the
// live arenas and stay valid for the life of the Memory.
func (m *Memory) DenseWindows() (lo, hi []byte, lo4, hiBase, hi4 uint32) {
	return m.lo, m.hi, m.lo4, m.hiBase, m.hi4
}

func (m *Memory) Read32Fast(addr uint32) (uint32, bool) {
	if addr < m.lo4 {
		return binary.LittleEndian.Uint32(m.lo[addr:]), true
	}
	if d := addr - m.hiBase; d < m.hi4 {
		return binary.LittleEndian.Uint32(m.hi[d:]), true
	}
	return 0, false
}

func (m *Memory) Write32Fast(addr uint32, v uint32) bool {
	if addr < m.lo4 {
		binary.LittleEndian.PutUint32(m.lo[addr:], v)
		if addr+4 > m.loDirty {
			m.loDirty = addr + 4
		}
		return true
	}
	if d := addr - m.hiBase; d < m.hi4 {
		binary.LittleEndian.PutUint32(m.hi[d:], v)
		if d < m.hiDirty {
			m.hiDirty = d
		}
		return true
	}
	return false
}

func (m *Memory) Read8Fast(addr uint32) (uint8, bool) {
	if addr < uint32(len(m.lo)) {
		return m.lo[addr], true
	}
	if d := addr - m.hiBase; d < uint32(len(m.hi)) {
		return m.hi[d], true
	}
	return 0, false
}

func (m *Memory) Write8Fast(addr uint32, v uint8) bool {
	if addr < uint32(len(m.lo)) {
		m.lo[addr] = v
		if addr >= m.loDirty {
			m.loDirty = addr + 1
		}
		return true
	}
	if d := addr - m.hiBase; d < uint32(len(m.hi)) {
		m.hi[d] = v
		if d < m.hiDirty {
			m.hiDirty = d
		}
		return true
	}
	return false
}

// Read32 returns the little-endian 32-bit value at addr.
func (m *Memory) Read32(addr uint32) uint32 {
	if addr < m.lo4 {
		return binary.LittleEndian.Uint32(m.lo[addr:])
	}
	if d := addr - m.hiBase; d < m.hi4 {
		return binary.LittleEndian.Uint32(m.hi[d:])
	}
	return m.read32Slow(addr)
}

// inSparsePage reports whether the 4-byte word at addr lies wholly inside
// one page and starts outside both arenas. Such a word lies wholly in the
// sparse store: lo starts at 0 and hiBase is page-aligned, so an in-page
// word that starts above an arena's end or below its base stays there.
func (m *Memory) inSparsePage(addr uint32) bool {
	return addr%PageSize <= PageSize-4 && addr >= uint32(len(m.lo)) && addr-m.hiBase >= uint32(len(m.hi))
}

func (m *Memory) read32Slow(addr uint32) uint32 {
	if m.inSparsePage(addr) {
		if p := m.page(addr, false); p != nil {
			off := addr % PageSize
			return binary.LittleEndian.Uint32(p[off : off+4])
		}
		return 0
	}
	return uint32(m.Read8(addr)) | uint32(m.Read8(addr+1))<<8 |
		uint32(m.Read8(addr+2))<<16 | uint32(m.Read8(addr+3))<<24
}

// Write32 stores v little-endian at addr.
func (m *Memory) Write32(addr uint32, v uint32) {
	if addr < m.lo4 {
		binary.LittleEndian.PutUint32(m.lo[addr:], v)
		if addr+4 > m.loDirty {
			m.loDirty = addr + 4
		}
		return
	}
	if d := addr - m.hiBase; d < m.hi4 {
		binary.LittleEndian.PutUint32(m.hi[d:], v)
		if d < m.hiDirty {
			m.hiDirty = d
		}
		return
	}
	m.write32Slow(addr, v)
}

func (m *Memory) write32Slow(addr uint32, v uint32) {
	if m.inSparsePage(addr) {
		p := m.page(addr, true)
		off := addr % PageSize
		binary.LittleEndian.PutUint32(p[off:off+4], v)
		return
	}
	m.Write8(addr, uint8(v))
	m.Write8(addr+1, uint8(v>>8))
	m.Write8(addr+2, uint8(v>>16))
	m.Write8(addr+3, uint8(v>>24))
}

// ReadBytes copies n bytes starting at addr into a new slice.
func (m *Memory) ReadBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.Read8(addr + uint32(i))
	}
	return out
}

// WriteBytes stores b starting at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	for i, v := range b {
		m.Write8(addr+uint32(i), v)
	}
}

// PagesAllocated reports how many sparse backing pages have been
// materialised. Arena-backed ranges are excluded: they are one host
// allocation regardless of use. Useful for space-overhead accounting in
// benchmarks of the sparse store.
func (m *Memory) PagesAllocated() int {
	return m.npages
}

// Reset returns the memory to all-zero in place: sparse pages are
// dropped with their directories (the table itself is left alone when no
// page exists) and each arena is zeroed only up to its dirty watermark,
// so recycling a machine costs proportional to the bytes it actually
// wrote, not the arena sizes.
func (m *Memory) Reset() {
	if m.npages > 0 {
		clear(m.dir[:])
		m.npages = 0
	}
	if m.loDirty > 0 {
		clear(m.lo[:m.loDirty])
		m.loDirty = 0
	}
	if d := m.hiDirty; d < uint32(len(m.hi)) {
		clear(m.hi[d:])
		m.hiDirty = uint32(len(m.hi))
	}
}
