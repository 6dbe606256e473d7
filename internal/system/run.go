package system

import (
	"fmt"

	"taglessdram/internal/config"
	"taglessdram/internal/org"
	"taglessdram/internal/sim"
	"taglessdram/internal/tlb"
	"taglessdram/internal/trace"
)

// Run executes the workload: every active core retires `warmup`
// instructions to populate caches and TLBs, statistics reset, and the
// measured phase runs for `measure` instructions per core.
func (m *Machine) Run(warmup, measure uint64) (*Result, error) {
	if measure == 0 {
		return nil, fmt.Errorf("system: measure phase must be positive")
	}
	// The phase target is the absolute instruction count warmup+measure;
	// validate it before the sum can wrap to a tiny (or huge) target.
	if warmup+measure < warmup {
		return nil, fmt.Errorf("system: warmup+measure overflows uint64 (warmup=%d measure=%d)", warmup, measure)
	}
	if err := m.runPhase(warmup); err != nil {
		return nil, err
	}
	m.beginMeasurement()
	if err := m.runPhase(warmup + measure); err != nil {
		return nil, err
	}
	// Let in-flight accesses and background evictions finish.
	for _, cc := range m.cores {
		cc.cpu.Drain()
	}
	m.kernel.Run(0)
	return m.collect(), nil
}

// runQueue is the machine's one core scheduler: an indexed min-heap of
// the runnable cores keyed by (clock, id), whose root — minimal clock,
// lowest id on ties — is the next core to step. A step moves only the
// stepped core's clock and instruction count (every request a core
// issues blocks that core alone), so after a step only the root's key
// has changed: the leader keeps running while it still precedes both
// children and otherwise sinks by one sift-down. A core leaves the heap
// once it has retired the instruction target.
type runQueue struct {
	h      []*coreCtx
	target uint64
}

// precedes orders cores by clock, then id.
func precedes(a, b *coreCtx) bool {
	an, bn := a.cpu.Now(), b.cpu.Now()
	return an < bn || an == bn && a.id < b.id
}

// reset loads every active core that has not retired target instructions.
func (q *runQueue) reset(cores []*coreCtx, target uint64) {
	q.h = q.h[:0]
	q.target = target
	for _, cc := range cores {
		if cc.active && cc.cpu.Instructions < target {
			q.h = append(q.h, cc)
		}
	}
	for i := len(q.h)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// next returns the core to step, or nil once every core is done.
func (q *runQueue) next() *coreCtx {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

// stepped restores the heap after its root core took a step.
func (q *runQueue) stepped() {
	h := q.h
	if h[0].cpu.Instructions >= q.target {
		last := len(h) - 1
		h[0] = h[last]
		q.h = h[:last]
		q.down(0)
		return
	}
	// down's first pass makes the same two comparisons; making them here
	// spares the call on every step that leaves the leader in front.
	if (len(h) < 2 || precedes(h[0], h[1])) && (len(h) < 3 || precedes(h[0], h[2])) {
		return // the leader runs on
	}
	q.down(0)
}

// down sifts h[i] to its place below.
func (q *runQueue) down(i int) {
	h := q.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && precedes(h[r], h[c]) {
			c = r
		}
		if !precedes(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// runPhase advances every active core until it has retired `target`
// instructions, interleaving cores in simulated-time order.
func (m *Machine) runPhase(target uint64) error {
	m.runq.reset(m.cores, target)
	return m.stepRefs(^uint64(0))
}

// Steps advances the machine by n trace references, interleaving active
// cores in simulated-time order with no instruction target. It exists for
// benchmarks and profiling harnesses that meter the per-reference path.
func (m *Machine) Steps(n int) error {
	if n <= 0 {
		return nil
	}
	m.runq.reset(m.cores, ^uint64(0))
	return m.stepRefs(uint64(n))
}

// stepRefs steps cores in scheduler order until n more references have
// been simulated or every core in the run queue has reached its target.
func (m *Machine) stepRefs(n uint64) error {
	q := &m.runq
	for start := m.refs; m.refs-start < n; {
		cc := q.next()
		if cc == nil {
			return nil
		}
		if err := m.step(cc); err != nil {
			return err
		}
		q.stepped()
	}
	return nil
}

// Drain fires every pending kernel event (controller daemons, in-flight
// fills) without advancing any core. Benchmarks call it after warm-up so
// the measured window starts from a quiesced event queue.
func (m *Machine) Drain() {
	m.kernel.Run(0)
}

// beginMeasurement resets all statistics at the warmup/measure boundary,
// keeping microarchitectural state (cache contents, TLBs, row buffers).
func (m *Machine) beginMeasurement() {
	m.measuring = true
	m.inPkg.ResetStats()
	m.offPkg.ResetStats()
	for _, cc := range m.cores {
		cc.l1.ResetStats()
		cc.l2.ResetStats()
		cc.tlbs.L1.ResetStats()
		cc.tlbs.L2.ResetStats()
		cc.startCycle = cc.cpu.Now()
		cc.startInstr = cc.cpu.Instructions
	}
	m.l3Lat.Reset()
	m.handlerLat.Reset()
	for i := range m.kindLat {
		m.kindLat[i].Reset()
	}
	m.l3Accesses.Reset()
	m.l3Hits.Reset()
	m.tlbLookups.Reset()
	m.tlbMisses.Reset()
	m.ncAccesses.Reset()
	m.ctxSwitches = 0
	if m.tlbShared != nil {
		m.tlbShared.Invalidations = 0
	}
	m.rec.Reset()
	m.rec.Enable()
	m.org.ResetStats()
	if m.sampler != nil {
		// Epoch zero starts here: rebase the sampler's cumulative
		// baseline on the freshly reset counters.
		m.sampler.Rebase(m.cumulative())
	}
}

// step processes one trace reference on one core.
func (m *Machine) step(cc *coreCtx) error {
	// Build the reference in place through the concrete generator: a
	// by-value Access copied out of the interface call costs a
	// store-forwarding stall on every reference.
	var a trace.Access
	if cc.vgen != nil {
		cc.vgen.Fill(&a)
	} else {
		a = cc.gen.Next()
	}
	cc.cpu.Retire(a.Gap + 1)
	m.kernel.Advance(cc.cpu.Now())
	m.refs++
	// Epoch sampling: one pointer check when disabled; boundaries land
	// between references (the closing reference's effects count toward
	// the next epoch).
	if m.sampler != nil && m.measuring && m.sampler.Tick() {
		m.sampler.Record(m.cumulative())
	}
	// Context-switch pacing: Due counts per-core references, so the step
	// path (n=1) and the fast-forward path (n=batch) produce the same
	// switch schedule.
	if m.ctx != nil {
		for n := m.ctx.Due(cc.id, 1); n > 0; n-- {
			m.contextSwitch(cc, true)
		}
	}
	vpn := a.VAddr >> 12
	write := a.Write

	// Inter-process shared pages (Section 3.5): map the common frame on
	// first touch. Without the alias table, the tagless design marks them
	// non-cacheable to avoid aliasing; PA-indexed designs share naturally.
	if a.Shared {
		if _, ok := cc.lookup(vpn); !ok {
			ppn, err := m.sharedFrame(vpn)
			if err != nil {
				return err
			}
			pte, err := cc.pt.MapShared(vpn, ppn)
			if err != nil {
				return err
			}
			if m.ctrl != nil && !m.cfg.Tagless.SharedAliasTable {
				pte.NC = true
			}
		}
	}

	// Online hot-page filter (CHOP-style, cited as complementary): pages
	// start non-cacheable and earn cacheability after enough accesses.
	if cc.hotCount != nil && !a.Shared {
		n := cc.hotCount[vpn] + 1
		cc.hotCount[vpn] = n
		if n == 1 {
			if pte, err := cc.pt.Walk(vpn); err == nil && !pte.VC {
				pte.NC = true
			}
		} else if n == uint32(m.cfg.Tagless.HotFilterThreshold) {
			if pte, ok := cc.lookup(vpn); ok && pte.NC && !pte.VC {
				pte.NC = false
				// Shoot down the stale NC translation so the next miss
				// fills the now-hot page into the cache.
				cc.tlbs.Invalidate(vpn)
			}
		}
	}

	// In superpage mode the OS marks low-reuse (singleton) pages
	// non-cacheable unconditionally: caching them would over-fetch a
	// whole region for one block ("it would be safe to specify
	// superpages as non-cacheable", Section 3.5).
	if m.ctrl != nil && m.spPages > 1 && a.LowReuse {
		if pte, ok := cc.lookup(vpn); !ok || (!pte.VC && !pte.NC) {
			_ = cc.pt.SetNonCacheable(vpn)
		}
	}

	// Offline-profile non-cacheable classification (Section 5.4).
	if m.ctrl != nil && m.ncThreshold > 0 && a.LowReuse {
		if pte, ok := cc.lookup(vpn); !ok || (!pte.VC && !pte.NC) {
			// Best effort; a cached page stays cached.
			_ = cc.pt.SetNonCacheable(vpn)
		}
	}

	// 1. Address translation. In superpage mode, cacheable application
	// pages translate at region granularity: one cTLB entry per region.
	lookupKey := vpn
	superKey := false
	if m.spPages > 1 && vpn < trace.SingletonBase {
		if pte, ok := cc.lookup(vpn); !ok || pte.Super {
			lookupKey = spKeyBit | vpn>>m.spShift
			superKey = true
		}
	}
	entry, lvl := cc.tlbs.Lookup(lookupKey)
	m.tlbLookups.Inc()
	if lvl == tlb.InL2 && m.tlbShared != nil && m.ctrl != nil {
		// A shared-L2 hit refilled this core's L1 with a translation a
		// sibling installed: set this core's residence bit so the GIPT
		// keeps tracking every core that can hit the page.
		m.ctrl.NoteTLBResident(cc.id, entry)
	}
	if lvl == tlb.MissAll {
		m.tlbMisses.Inc()
		start := cc.cpu.Now()
		m.rec.Begin()
		var done sim.Tick
		if m.ctrl != nil {
			regionOff := a.VAddr & (config.PageSize - 1)
			if superKey {
				regionOff = (vpn&m.spMask)*config.PageSize + regionOff
			}
			e, d, kind, err := m.ctrl.HandleTLBMiss(start, cc.id, cc.pt, vpn, regionOff)
			if err != nil {
				return fmt.Errorf("system: core %d vpn %d: %w", cc.id, vpn, err)
			}
			entry, done = e, d
			// A superpage candidate resolved to a 4KB NC mapping keys at
			// 4KB granularity.
			if superKey && e.NC {
				lookupKey, superKey = vpn, false
			}
			if m.measuring {
				m.kindLat[kind].Observe(float64(d - start))
			}
		} else {
			pte, err := cc.pt.Walk(vpn)
			if err != nil {
				return fmt.Errorf("system: core %d vpn %d: %w", cc.id, vpn, err)
			}
			entry = tlb.Entry{Frame: pte.Frame}
			// The walk model attributes its own latency components.
			done = m.walk.Walk(start, cc.id, vpn)
		}
		cc.tlbs.Insert(lookupKey, entry)
		cc.cpu.Block(done)
		if m.measuring {
			m.handlerLat.Observe(float64(done - start))
		}
		m.rec.CommitHandler(done - start)
	}

	// 2. On-die cache key: cache addresses for cached pages in the
	// tagless design, physical addresses otherwise.
	offset := a.VAddr & (config.PageSize - 1)
	var key uint64
	switch {
	case m.ctrl != nil && !entry.NC && superKey:
		// Superpage region: Frame is the region CA.
		key = entry.Frame<<m.caShift + (vpn&m.spMask)*config.PageSize + offset
	case m.ctrl != nil && !entry.NC:
		key = entry.Frame*config.PageSize + offset // CA space
	case m.ctrl != nil:
		key = paBit | (entry.Frame*config.PageSize + offset)
		m.ncAccesses.Inc()
	default:
		key = entry.Frame*config.PageSize + offset // PA space
	}

	// 3. On-die caches (latency hidden by the out-of-order window).
	if hit, victim, hasVictim := cc.l1.Access(key, write); hit {
		return nil
	} else if hasVictim && victim.Dirty {
		// L1 write-back sinks into L2 (or memory when absent).
		if !cc.l2.MarkDirty(victim.Addr) {
			m.writebackBlock(cc, victim.Addr)
		}
	}
	if hit, victim, hasVictim := cc.l2.Access(key, write); hit {
		return nil
	} else if hasVictim && victim.Dirty {
		m.writebackBlock(cc, victim.Addr)
	}

	// 4. The L3 / memory access.
	m.l3Access(cc, entry, key, offset, write, a.Dependent)
	return nil
}

// l3Access hands an L2 miss to the organization.
func (m *Machine) l3Access(cc *coreCtx, entry tlb.Entry, key, offset uint64, write, dep bool) {
	if m.measuring {
		m.l3Accesses.Inc()
	}
	m.rec.Begin()
	m.org.Access(org.Request{
		CPU:    cc.cpu,
		Key:    key,
		Frame:  entry.Frame,
		Offset: offset,
		NC:     entry.NC,
		Write:  write,
		Dep:    dep,
	})
}

// observeL3 records one L3 access's device-side latency and hit/miss.
func (m *Machine) observeL3(d sim.Tick, hit bool) {
	if !m.measuring {
		return
	}
	m.l3Lat.Observe(float64(d))
	if hit {
		m.l3Hits.Inc()
	}
	m.rec.CommitL3(d)
}

// writebackBlock sinks a dirty on-die victim line into the level below,
// off the core's critical path (device traffic only).
func (m *Machine) writebackBlock(cc *coreCtx, key uint64) {
	m.org.Writeback(cc.cpu.Now(), key)
}
