package telemetry

import (
	"sync/atomic"
	"unsafe"
)

// NumSlots is the number of thread slots a Counters keeps. Sixteen covers
// the thread counts the experiments run (8 and 16 workers) with at most
// two threads folding onto one slot. Must be a power of two.
const NumSlots = 16

// lineWords is how many 8-byte counters fill one 64-byte cache line.
const lineWords = 8

// Counters is a fixed set of monotone event counters sharded by thread:
// one block holding all of them per thread slot, every block starting on a
// cache line of its own, so a thread's increments stay on its own few
// lines and no two slots false-share. Writers name their thread (any
// value: it is folded onto a slot by masking) and a counter index; readers
// sum a counter over the slots with Load.
//
// A sum is eventually consistent: Load reads each slot with a separate
// atomic load, so a sum taken while writers run may miss in-flight
// increments, which is fine for monitoring (the value is monotone and
// catches up on the next scrape).
type Counters struct {
	width uint64          // words per block: the counters, rounded up to whole lines
	cells []atomic.Uint64 // counter i of slot s at s*width+i
}

// NewCounters returns n counters with one block per thread slot.
func NewCounters(n int) Counters {
	width := (n + lineWords - 1) / lineWords * lineWords
	size := NumSlots * width
	// One line of slack lets the first block start on a line boundary
	// wherever the allocator put the buffer; the heap never moves it.
	buf := make([]atomic.Uint64, size+lineWords-1)
	off := (lineWords - int(uintptr(unsafe.Pointer(&buf[0]))/8%lineWords)) % lineWords
	return Counters{width: uint64(width), cells: buf[off : off+size : off+size]}
}

func (c *Counters) cell(thread uint64, i int) *atomic.Uint64 {
	return &c.cells[(thread&(NumSlots-1))*c.width+uint64(i)]
}

// Inc adds one to counter i in thread's slot and returns the slot-local
// count.
func (c *Counters) Inc(thread uint64, i int) uint64 { return c.cell(thread, i).Add(1) }

// Add adds n to counter i in thread's slot.
func (c *Counters) Add(thread uint64, i int, n uint64) { c.cell(thread, i).Add(n) }

// slotLoad returns counter i's count in thread's slot without modifying
// it: a plain atomic load of a line the calling thread usually owns, so it
// is far cheaper than an Inc (no locked read-modify-write).
func (c *Counters) slotLoad(thread uint64, i int) uint64 { return c.cell(thread, i).Load() }

// Load returns counter i summed over every slot.
func (c *Counters) Load(i int) uint64 {
	var sum uint64
	for s := uint64(0); s < NumSlots; s++ {
		sum += c.cells[s*c.width+uint64(i)].Load()
	}
	return sum
}

// Reset zeroes every counter. Concurrent increments race benignly (they
// land before or after the zeroing, never corrupt).
func (c *Counters) Reset() {
	for i := range c.cells {
		c.cells[i].Store(0)
	}
}
