package core

import (
	"fmt"
	"sort"

	"taglessdram/internal/mmu"
	"taglessdram/internal/sim"
)

// PTERef names a page-table entry by position instead of by pointer: the
// owning table's index in the system's table set and the vpn the entry is
// keyed under (the region base for superpage entries). Checkpoints store
// refs; restore resolves them against the freshly rebuilt tables.
type PTERef struct {
	Table int
	VPN   uint64
}

// PTECodec translates between *mmu.PTE pointers and stable PTERefs during
// checkpoint save and restore. The system layer, which owns the table set,
// provides both directions: Encode reports false for a pointer it cannot
// attribute, Decode returns nil for a ref that resolves to nothing.
type PTECodec struct {
	Encode func(*mmu.PTE) (PTERef, bool)
	Decode func(PTERef) *mmu.PTE
}

// GIPTEntryState is one serialized GIPT row.
type GIPTEntryState struct {
	PPN       uint64
	PTE       PTERef
	HasPTE    bool
	VPN       uint64
	Residence uint64
	State     BlockState
	Dirty     bool
	Sharers   []PTERef
	FillDone  sim.Tick
}

// AliasState is one serialized alias-table binding.
type AliasState struct {
	PPN uint64
	CA  uint64
}

// CtrlState is the controller's serializable state. Only a quiesced
// controller can be captured: pending fills, daemon-queue entries and
// in-flight evictions have no representation.
type CtrlState struct {
	FreeList  []uint64
	FreeHead  int
	AllocQ    []uint64
	LastTouch []sim.Tick
	RefBit    []bool
	Cursor    uint64
	Aliases   []AliasState
	Stats     Stats
	GIPT      []GIPTEntryState
}

// Snapshot captures the controller and GIPT, encoding PTE pointers
// through the codec.
func (c *Controller) Snapshot(codec *PTECodec) (*CtrlState, error) {
	if !c.Quiesced() {
		return nil, fmt.Errorf("core: cannot snapshot: %d pending fills, %d in-flight evictions, %d queued",
			len(c.pendings), c.inFlight, c.freeQ.Len())
	}
	st := &CtrlState{
		FreeList:  append([]uint64(nil), c.freeList[c.freeHead:]...),
		AllocQ:    append([]uint64(nil), c.allocQ.q[c.allocQ.head:]...),
		LastTouch: append([]sim.Tick(nil), c.lastTouch...),
		RefBit:    append([]bool(nil), c.refBit...),
		Cursor:    c.cursor,
		Stats:     c.stats,
		GIPT:      make([]GIPTEntryState, len(c.gipt.entries)),
	}
	if c.aliases != nil {
		st.Aliases = make([]AliasState, 0, len(c.aliases))
		for ppn, ca := range c.aliases {
			st.Aliases = append(st.Aliases, AliasState{PPN: ppn, CA: ca})
		}
		sort.Slice(st.Aliases, func(i, j int) bool { return st.Aliases[i].PPN < st.Aliases[j].PPN })
	}
	for i := range c.gipt.entries {
		e := &c.gipt.entries[i]
		if e.State == Filling {
			return nil, fmt.Errorf("core: cannot snapshot: CA-%d still filling", i)
		}
		es := &st.GIPT[i]
		es.PPN, es.VPN, es.Residence = e.PPN, e.VPN, e.Residence
		es.State, es.Dirty, es.FillDone = e.State, e.Dirty, e.FillDone
		if e.PTE != nil {
			ref, ok := codec.Encode(e.PTE)
			if !ok {
				return nil, fmt.Errorf("core: CA-%d references a PTE outside the table set", i)
			}
			es.PTE, es.HasPTE = ref, true
		}
		for _, p := range e.Sharers {
			ref, ok := codec.Encode(p)
			if !ok {
				return nil, fmt.Errorf("core: CA-%d sharer references a PTE outside the table set", i)
			}
			es.Sharers = append(es.Sharers, ref)
		}
	}
	return st, nil
}

// Restore rebuilds controller and GIPT state from a snapshot taken on an
// identically-configured controller, resolving PTERefs through the codec.
// The target must be quiesced (a freshly built machine is).
func (c *Controller) Restore(codec *PTECodec, st *CtrlState) error {
	if !c.Quiesced() {
		return fmt.Errorf("core: cannot restore over in-flight work")
	}
	if len(st.GIPT) != len(c.gipt.entries) {
		return fmt.Errorf("core: GIPT size mismatch (%d vs %d blocks)", len(st.GIPT), len(c.gipt.entries))
	}
	c.freeList = append(c.freeList[:0], st.FreeList...)
	c.freeHead = 0
	c.allocQ = FreeQueue{q: append([]uint64(nil), st.AllocQ...)}
	c.freeQ = FreeQueue{}
	copy(c.lastTouch, st.LastTouch)
	copy(c.refBit, st.RefBit)
	c.cursor = st.Cursor
	if c.aliases != nil {
		c.aliases = make(map[uint64]uint64, len(st.Aliases))
		for _, a := range st.Aliases {
			c.aliases[a.PPN] = a.CA
		}
	}
	c.stats = st.Stats
	for i := range st.GIPT {
		es := &st.GIPT[i]
		e := &c.gipt.entries[i]
		*e = GIPTEntry{
			PPN: es.PPN, VPN: es.VPN, Residence: es.Residence,
			State: es.State, Dirty: es.Dirty, FillDone: es.FillDone,
		}
		if es.HasPTE {
			pte := codec.Decode(es.PTE)
			if pte == nil {
				return fmt.Errorf("core: CA-%d PTE ref %+v resolves to nothing", i, es.PTE)
			}
			e.PTE = pte
		}
		for _, ref := range es.Sharers {
			pte := codec.Decode(ref)
			if pte == nil {
				return fmt.Errorf("core: CA-%d sharer ref %+v resolves to nothing", i, ref)
			}
			e.Sharers = append(e.Sharers, pte)
		}
	}
	c.gipt.recount(st.AllocQ)
	return nil
}
