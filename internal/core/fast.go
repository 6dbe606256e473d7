package core

import (
	"fmt"

	"taglessdram/internal/mmu"
	"taglessdram/internal/sim"
	"taglessdram/internal/tlb"
)

// Quiesced reports whether the controller has no in-flight work: no
// pending fills, no eviction daemon queue, no evictions underway. Running
// the kernel dry (kernel.Run(0)) establishes this. Fast-forward and
// checkpointing both require it — neither can represent in-flight state.
func (c *Controller) Quiesced() bool {
	return len(c.pendings) == 0 && c.inFlight == 0 && c.freeQ.Len() == 0
}

// SetStats overwrites the controller's counters; the fast-forward path
// uses the Stats/SetStats pair to roll back counter increments a
// functional span made, keeping measured-window statistics clean.
func (c *Controller) SetStats(s Stats) { c.stats = s }

// FastTLBMiss is the functional cTLB miss handler the fast-forward path
// uses: the same state transitions as HandleTLBMiss (walk, victim hit,
// alias attach, allocate+fill, replenish) with no timing, no kernel events
// and no device traffic. Fills and evictions complete immediately, so the
// PU bit and the Filling/PendingEvict windows never become observable —
// the documented approximation of the fast path. `at` stamps LRU recency
// (the caller's core clock). The controller must be quiesced.
func (c *Controller) FastTLBMiss(at sim.Tick, coreID int, pt *mmu.PageTable, vpn uint64) (tlb.Entry, error) {
	c.stats.Walks++
	var pte *mmu.PTE
	var err error
	if c.cfg.RegionPages > 1 {
		// Superpage mode: 4KB mappings (non-cacheable, shared) take
		// precedence; everything else maps at region granularity.
		if p, ok := pt.Lookup(vpn); ok && !p.Super {
			pte = p
		} else {
			pte, err = pt.WalkRegion(vpn, uint64(c.cfg.RegionPages))
		}
	} else {
		pte, err = pt.Walk(vpn)
	}
	if err != nil {
		return tlb.Entry{}, err
	}

	if pte.NC {
		c.stats.NonCacheable++
		return tlb.Entry{Frame: pte.Frame, NC: true}, nil
	}

	if pte.PU {
		return tlb.Entry{}, fmt.Errorf("core: PU bit set during fast-forward (controller not quiesced)")
	}

	if pte.VC {
		ca := pte.Frame
		e := c.gipt.Entry(ca)
		if e.State == PendingEvict {
			c.gipt.SetState(ca, Cached)
			c.enqueueAlloc(ca)
			c.stats.Rescues++
		}
		c.gipt.SetResidence(ca, coreID, true)
		c.stats.VictimHits++
		return tlb.Entry{Frame: ca}, nil
	}

	if c.aliases != nil {
		if ca, ok := c.aliases[pte.Frame]; ok {
			if c.fastAttachAlias(ca, pte, coreID) {
				return tlb.Entry{Frame: ca}, nil
			}
		}
	}

	// Cacheable but not cached: allocate at the header pointer and fill,
	// completing the PTE rewrite inline.
	ppn := pte.Frame
	ca, ok := c.popFree()
	if !ok {
		ca, err = c.fastEvictInline(at)
		if err != nil {
			return tlb.Entry{}, err
		}
	}
	c.gipt.Insert(ca, ppn, pte, vpn&^uint64(c.cfg.RegionPages-1))
	c.lastTouch[ca] = at
	c.enqueueAlloc(ca)
	if c.aliases != nil {
		c.aliases[ppn] = ca
		c.gipt.Entry(ca).Sharers = []*mmu.PTE{pte}
	}
	pte.Frame = ca
	pte.VC = true
	c.gipt.SetState(ca, Cached)
	c.gipt.Entry(ca).FillDone = at
	c.gipt.SetResidence(ca, coreID, true)
	c.stats.ColdFills++

	if !c.cfg.SynchronousEviction {
		c.fastReplenish(at)
	}
	return tlb.Entry{Frame: ca}, nil
}

// fastAttachAlias is attachAlias without the Filling case (impossible on
// the quiesced fast path) or timing.
func (c *Controller) fastAttachAlias(ca uint64, pte *mmu.PTE, coreID int) bool {
	e := c.gipt.Entry(ca)
	switch e.State {
	case Cached:
		pte.Frame = ca
		pte.VC = true
	case PendingEvict:
		c.gipt.SetState(ca, Cached)
		c.enqueueAlloc(ca)
		c.stats.Rescues++
		pte.Frame = ca
		pte.VC = true
	default:
		return false // stale table entry; fall through to a fill
	}
	already := false
	for _, p := range e.Sharers {
		if p == pte {
			already = true
			break
		}
	}
	if !already {
		e.Sharers = append(e.Sharers, pte)
	}
	c.gipt.SetResidence(ca, coreID, true)
	c.stats.AliasHits++
	return true
}

// fastFinishEvict evicts victim ca immediately: write-back accounting,
// PTE restore, GIPT invalidate, free-list push and the EvictHook (whose
// on-die invalidations are state the fast path must keep faithful).
func (c *Controller) fastFinishEvict(at sim.Tick, ca uint64) {
	e := c.gipt.Entry(ca)
	if e.Dirty {
		c.stats.Writebacks++
	}
	c.inFlight++ // finishEviction decrements
	c.finishEviction(at, ca, e.PPN, e.PTE, e.Dirty)
}

// fastEvictInline is evictInline for the fast path.
func (c *Controller) fastEvictInline(at sim.Tick) (uint64, error) {
	ca, ok := c.selectVictim()
	if !ok {
		return 0, fmt.Errorf("core: no evictable block (all %d resident or filling)", c.cfg.Blocks)
	}
	c.stats.SyncEvictions++
	c.fastFinishEvict(at, ca)
	ca2, ok := c.popFree()
	if !ok {
		panic("core: inline eviction freed no block")
	}
	return ca2, nil
}

// fastReplenish is the eviction daemon collapsed to its fixed point: top
// the free pool up to α with immediate evictions. On the quiesced fast
// path FreeBlocks alone is the pool (no daemon queue, nothing in flight).
func (c *Controller) fastReplenish(at sim.Tick) {
	for c.FreeBlocks() < c.cfg.Alpha {
		ca, ok := c.selectVictim()
		if !ok {
			return
		}
		c.fastFinishEvict(at, ca)
	}
}
