// Package core implements the paper's contribution: the tagless DRAM cache.
//
// The three structures of Section 3.2 live here:
//
//   - the global inverted page table (GIPT), indexed by cache address,
//     holding the cache→physical mapping, the PTE pointer, and the per-core
//     TLB residence bit vector;
//   - the free queue, a FIFO of blocks awaiting asynchronous eviction; and
//   - the Controller, whose HandleTLBMiss method is the paper's cTLB miss
//     handler (Figure 4): walk, allocate, fill, GIPT update, PTE rewrite.
//
// The controller is time-aware (all operations take and return sim.Tick)
// but device-agnostic: actual DRAM traffic goes through the MemOps
// interface so the controller can be unit-tested against a fake and wired
// to the cycle-level devices by the system package.
package core

import (
	"fmt"

	"taglessdram/internal/mmu"
	"taglessdram/internal/sim"
)

// BlockState tracks the lifecycle of one page-sized cache block.
type BlockState uint8

// Block lifecycle states.
const (
	// Free: available for allocation by the header pointer.
	Free BlockState = iota
	// Filling: a cache fill is in flight (the PTE's PU bit is set).
	Filling
	// Cached: holds a valid page.
	Cached
	// PendingEvict: enqueued on the free queue, awaiting the eviction
	// daemon; a victim hit can still rescue it back to Cached.
	PendingEvict
)

// String implements fmt.Stringer.
func (s BlockState) String() string {
	switch s {
	case Free:
		return "free"
	case Filling:
		return "filling"
	case Cached:
		return "cached"
	case PendingEvict:
		return "pending-evict"
	default:
		return fmt.Sprintf("BlockState(%d)", uint8(s))
	}
}

// GIPTEntry is one row of the global inverted page table (82 bits in
// hardware: 36-bit PPN, 42-bit PTE pointer, 4-bit residence vector).
type GIPTEntry struct {
	PPN       uint64   // off-package physical page backing this block
	PTE       *mmu.PTE // pointer to the owning page-table entry
	VPN       uint64   // virtual page (for TLB shootdown bookkeeping)
	Residence uint64   // per-core TLB residence bits
	State     BlockState
	Dirty     bool
	// Sharers lists every PTE mapping this block when the Section 6
	// alias table is enabled (Sharers[0] == PTE); eviction rewrites all
	// of them, as a Linux-style reverse mapping would.
	Sharers []*mmu.PTE
	// FillDone is when the in-flight fill completes (State == Filling),
	// so alias attachers from other processes can wait on it.
	FillDone sim.Tick
}

// GIPT is the global inverted page table: one entry per cache block,
// indexed by cache address. Besides the rows it keeps the two counts the
// FIFO victim search needs to prove, in O(1), that a pass over the
// allocation queue would find nothing (see Controller.noVictim), so block
// state and residence change only through its methods.
type GIPT struct {
	entries []GIPTEntry
	// queued[ca] is ca's number of entries in the controller's
	// allocation queue (a rescued block can sit there more than once).
	queued []uint32
	// evictable counts Cached blocks no TLB references; stale counts
	// allocation-queue entries of Free or PendingEvict blocks, which a
	// queue pass drops.
	evictable int
	stale     int
}

// NewGIPT returns a GIPT covering `blocks` page-sized cache blocks.
func NewGIPT(blocks int) *GIPT {
	if blocks <= 0 {
		panic("core: GIPT needs at least one block")
	}
	return &GIPT{entries: make([]GIPTEntry, blocks), queued: make([]uint32, blocks)}
}

// Blocks returns the number of cache blocks covered.
func (g *GIPT) Blocks() int { return len(g.entries) }

// Entry returns a pointer to the entry for cache address ca. Callers may
// change its mapping, dirtiness and sharers; State and Residence change
// through SetState, SetResidence and ClearResidence.
func (g *GIPT) Entry(ca uint64) *GIPTEntry {
	return &g.entries[ca]
}

// tally adds sign × ca's share of the victim-selection counts.
func (g *GIPT) tally(ca uint64, sign int) {
	e := &g.entries[ca]
	switch e.State {
	case Cached:
		if e.Residence == 0 {
			g.evictable += sign
		}
	case Free, PendingEvict:
		g.stale += sign * int(g.queued[ca])
	}
}

// Insert establishes the cache→physical mapping for a fill in flight.
func (g *GIPT) Insert(ca uint64, ppn uint64, pte *mmu.PTE, vpn uint64) {
	e := &g.entries[ca]
	if e.State != Free {
		panic(fmt.Sprintf("core: GIPT insert into %v block CA-%d", e.State, ca))
	}
	g.tally(ca, -1)
	*e = GIPTEntry{PPN: ppn, PTE: pte, VPN: vpn, State: Filling}
}

// Invalidate clears the entry after an eviction completes.
func (g *GIPT) Invalidate(ca uint64) {
	g.tally(ca, -1)
	g.entries[ca] = GIPTEntry{State: Free}
	g.tally(ca, 1)
}

// SetState moves ca to lifecycle state s.
func (g *GIPT) SetState(ca uint64, s BlockState) {
	g.tally(ca, -1)
	g.entries[ca].State = s
	g.tally(ca, 1)
}

// SetResidence marks or clears core's TLB residence bit for ca.
func (g *GIPT) SetResidence(ca uint64, coreID int, resident bool) {
	e := &g.entries[ca]
	was := e.Residence
	if resident {
		e.Residence |= 1 << uint(coreID)
	} else {
		e.Residence &^= 1 << uint(coreID)
	}
	if e.State == Cached && (was == 0) != (e.Residence == 0) {
		if e.Residence == 0 {
			g.evictable++
		} else {
			g.evictable--
		}
	}
}

// ClearResidence drops every core's residence bit for ca (a forced
// shootdown).
func (g *GIPT) ClearResidence(ca uint64) {
	g.tally(ca, -1)
	g.entries[ca].Residence = 0
	g.tally(ca, 1)
}

// queue records d more (or, negative, fewer) allocation-queue entries
// for ca.
func (g *GIPT) queue(ca uint64, d int) {
	g.queued[ca] = uint32(int(g.queued[ca]) + d)
	if s := g.entries[ca].State; s == Free || s == PendingEvict {
		g.stale += d
	}
}

// recount rebuilds the queue multiplicities from the allocation queue's
// contents and the victim-selection counts from the rows.
func (g *GIPT) recount(allocQ []uint64) {
	clear(g.queued)
	for _, ca := range allocQ {
		g.queued[ca]++
	}
	g.evictable, g.stale = 0, 0
	for ca := range g.entries {
		g.tally(uint64(ca), 1)
	}
}

// Resident reports whether any core's TLB still references ca.
func (g *GIPT) Resident(ca uint64) bool { return g.entries[ca].Residence != 0 }

// CachedCount returns the number of blocks holding valid pages (Cached or
// PendingEvict — a pending block still holds data until the daemon runs).
func (g *GIPT) CachedCount() int {
	n := 0
	for i := range g.entries {
		if s := g.entries[i].State; s == Cached || s == PendingEvict {
			n++
		}
	}
	return n
}

// FreeCount returns the number of Free blocks.
func (g *GIPT) FreeCount() int {
	n := 0
	for i := range g.entries {
		if g.entries[i].State == Free {
			n++
		}
	}
	return n
}

// FreeQueue is the FIFO of cache addresses awaiting asynchronous eviction.
// The zero value is an empty queue.
type FreeQueue struct {
	q    []uint64
	head int
}

// Len returns the number of queued blocks.
func (f *FreeQueue) Len() int { return len(f.q) - f.head }

// Enqueue appends a cache address.
func (f *FreeQueue) Enqueue(ca uint64) { f.q = append(f.q, ca) }

// Dequeue removes and returns the oldest cache address.
func (f *FreeQueue) Dequeue() (uint64, bool) {
	if f.Len() == 0 {
		return 0, false
	}
	ca := f.q[f.head]
	f.head++
	// Reclaim space once the consumed prefix dominates.
	if f.head > 64 && f.head*2 > len(f.q) {
		f.q = append(f.q[:0], f.q[f.head:]...)
		f.head = 0
	}
	return ca, true
}
