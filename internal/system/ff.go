package system

import (
	"fmt"

	"taglessdram/internal/config"
	"taglessdram/internal/org"
	"taglessdram/internal/tlb"
	"taglessdram/internal/trace"
)

// This file is the functional fast-forward path: a second per-reference
// engine that applies every state transition of step — TLB contents,
// page-table classification, on-die cache residence and dirtiness, the
// organization's tag/replacement state, the tagless controller's GIPT —
// while skipping everything timing: no kernel events, no DRAM accesses,
// no MSHR/stall modeling, no latency attribution. Fills and evictions
// complete immediately (no in-flight windows), each core's clock advances
// at issue width, and statistics counters are rolled back afterwards, so
// a fast-forwarded span warms state without perturbing measured-window
// statistics. The documented approximations — compressed timescales in
// recency state, no PendingEvict rescue window, one LRU touch per block
// instead of one per reference — are absorbed by the sampling error bound
// the accuracy tests enforce.
//
// The engine consumes whole page visits (trace.NextVisit) when a core's
// source is a *trace.Generator standing at a visit boundary, collapsing a
// visit's E references into one TLB lookup and one cache access per
// distinct block; any other position or source falls back to synthesizing
// single-reference visits from Next, which keeps fast-forward available
// (just slower) for arbitrary sources and mid-visit entry points.

// ffCoreSaved holds one core's statistics counters across a
// fast-forwarded span.
type ffCoreSaved struct {
	l1, l2       [4]uint64
	tlbL1, tlbL2 [4]uint64
	ptWalks      uint64
	ptFaults     uint64
}

// ffBegin quiesces the event kernel (fast-forward cannot represent
// in-flight work) and snapshots every counter the span would otherwise
// pollute. It returns an error when the organization has no fast path.
func (m *Machine) ffBegin() error {
	if m.fast == nil {
		return fmt.Errorf("system: organization %T does not implement org.FastPath", m.org)
	}
	m.kernel.Run(0)
	if m.ctrl != nil && !m.ctrl.Quiesced() {
		return fmt.Errorf("system: controller not quiesced after kernel drain")
	}
	if m.ffSave == nil {
		m.ffSave = make([]ffCoreSaved, len(m.cores))
	}
	m.ffEpoch++ // expire every ffFilt entry from earlier spans
	for i, cc := range m.cores {
		if !cc.active {
			continue
		}
		if cc.ffFilt == nil {
			n := 1
			for n*2 <= cc.l2.Config().Sets()*cc.l2.Config().Ways {
				n *= 2
			}
			cc.ffFilt = make([]uint64, n)
			cc.ffMask = uint64(n - 1)
			for cc.ffLog = 0; n>>cc.ffLog != 1; cc.ffLog++ {
			}
		}
		s := &m.ffSave[i]
		s.l1, s.l2 = cc.l1.Counters(), cc.l2.Counters()
		s.tlbL1, s.tlbL2 = cc.tlbs.L1.Counters(), cc.tlbs.L2.Counters()
		s.ptWalks, s.ptFaults = cc.pt.Walks, cc.pt.PageFaults
	}
	m.fast.FastBegin()
	return nil
}

// ffEnd restores the counters captured by ffBegin.
func (m *Machine) ffEnd() {
	for i, cc := range m.cores {
		if !cc.active {
			continue
		}
		s := &m.ffSave[i]
		cc.l1.SetCounters(s.l1)
		cc.l2.SetCounters(s.l2)
		cc.tlbs.L1.SetCounters(s.tlbL1)
		cc.tlbs.L2.SetCounters(s.tlbL2)
		cc.pt.Walks, cc.pt.PageFaults = s.ptWalks, s.ptFaults
	}
	m.fast.FastEnd()
}

// fetchVisit fills v with the core's next page visit: whole visits from a
// generator at a visit boundary, synthesized single-reference visits
// otherwise (mid-visit entry after an accurate window, or a non-generator
// source).
func fetchVisit(cc *coreCtx, v *trace.Visit) {
	if cc.vgen != nil && cc.vgen.AtVisitBoundary() {
		cc.vgen.NextVisit(v)
		return
	}
	a := cc.gen.Next()
	v.Page = a.VAddr >> 12
	v.FirstBlock = int(a.VAddr>>6) & 63
	v.Blocks = 1
	v.Refs = 1
	v.Instr = uint64(a.Gap) + 1
	v.LowReuse = a.LowReuse
	v.Shared = a.Shared
	if a.Write {
		v.AnyWrite, v.FirstWrite = 1, 1
	} else {
		v.AnyWrite, v.FirstWrite = 0, 0
	}
}

// FastForwardRefs advances the machine by at least n trace references on
// the functional fast path, interleaving active cores in simulated-time
// order (the same scheduler runPhase uses). Visits are atomic,
// so the span may overshoot n by up to one visit. The kernel is drained
// first; counters are restored on return.
func (m *Machine) FastForwardRefs(n uint64) error {
	return m.fastForward(n, ^uint64(0))
}

// fastForward advances by at least n references, stopping early once
// every active core has retired instrTarget instructions.
func (m *Machine) fastForward(n, instrTarget uint64) error {
	if err := m.ffBegin(); err != nil {
		return err
	}
	defer m.ffEnd()
	var v trace.Visit
	var done uint64
	q := &m.runq
	q.reset(m.cores, instrTarget)
	for done < n {
		cc := q.next()
		if cc == nil {
			return nil
		}
		fetchVisit(cc, &v)
		if err := m.ffVisit(cc, &v); err != nil {
			return err
		}
		done += v.Refs
		q.stepped()
	}
	return nil
}

// ffVisit applies one page visit's state transitions: retirement, shared
// mapping, hot-filter and non-cacheable classification, one TLB
// resolution, and per-block on-die cache and organization updates.
func (m *Machine) ffVisit(cc *coreCtx, v *trace.Visit) error {
	cc.cpu.Retire(int(v.Instr))
	m.refs += v.Refs
	// Context-switch pacing: same per-core reference counting as step, so
	// the switch schedule is identical across paths (untimed here — state
	// effects only).
	if m.ctx != nil {
		for n := m.ctx.Due(cc.id, v.Refs); n > 0; n-- {
			m.contextSwitch(cc, false)
		}
	}
	now := cc.cpu.Now()
	vpn := v.Page

	// Inter-process shared pages: map the common frame on first touch
	// (step's per-reference check is idempotent after the first).
	if v.Shared {
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

	// Online hot-page filter, batched: the visit's E references all land
	// on one page, so apply both threshold crossings (first touch marks
	// non-cacheable, the HotFilterThreshold-th access clears it) in the
	// order the per-reference path would.
	if cc.hotCount != nil && !v.Shared {
		old := cc.hotCount[vpn]
		n := old + uint32(v.Refs)
		cc.hotCount[vpn] = n
		if old == 0 {
			if pte, err := cc.pt.Walk(vpn); err == nil && !pte.VC {
				pte.NC = true
			}
		}
		if thr := uint32(m.cfg.Tagless.HotFilterThreshold); old < thr && n >= thr {
			if pte, ok := cc.lookup(vpn); ok && pte.NC && !pte.VC {
				pte.NC = false
				cc.tlbs.Invalidate(vpn)
			}
		}
	}

	// Low-reuse non-cacheable classification (idempotent; once per visit).
	if m.ctrl != nil && v.LowReuse && (m.spPages > 1 || m.ncThreshold > 0) {
		if pte, ok := cc.lookup(vpn); !ok || (!pte.VC && !pte.NC) {
			_ = cc.pt.SetNonCacheable(vpn)
		}
	}

	// Address translation: one cTLB resolution covers the whole visit
	// (repeats would hit the just-inserted entry on the accurate path).
	lookupKey := vpn
	superKey := false
	if m.spPages > 1 && vpn < trace.SingletonBase {
		if pte, ok := cc.lookup(vpn); !ok || pte.Super {
			lookupKey = spKeyBit | vpn>>m.spShift
			superKey = true
		}
	}
	entry, lvl := cc.tlbs.Lookup(lookupKey)
	if lvl == tlb.InL2 && m.tlbShared != nil && m.ctrl != nil {
		// Shared-L2 refill parity with step: the sibling-installed
		// translation now sits in this core's L1.
		m.ctrl.NoteTLBResident(cc.id, entry)
	}
	if lvl == tlb.MissAll {
		if m.ctrl != nil {
			e, err := m.ctrl.FastTLBMiss(now, cc.id, cc.pt, vpn)
			if err != nil {
				return fmt.Errorf("system: core %d vpn %d: %w", cc.id, vpn, err)
			}
			entry = e
			if superKey && e.NC {
				lookupKey, superKey = vpn, false
			}
		} else {
			pte, err := cc.pt.Walk(vpn)
			if err != nil {
				return fmt.Errorf("system: core %d vpn %d: %w", cc.id, vpn, err)
			}
			entry = tlb.Entry{Frame: pte.Frame}
		}
		cc.tlbs.Insert(lookupKey, entry)
	}

	// Per-block on-die cache state: one access per distinct block. The
	// on-die hierarchy's filtering is load-bearing even on the fast path —
	// without it every visit block would reach the organization, keeping
	// hot DRAM-cache state artificially recent and biasing sampled IPC —
	// but full set-associative L1+L2 accesses cost more than the rest of
	// the fast path combined, so a direct-mapped presence filter of the
	// hierarchy's (L2) capacity stands in: filter hits cost one array
	// probe, the way on-die hits would cost no L3 traffic, and dirtiness
	// is applied to the L2 eagerly (the visit's any-write bit, the state
	// an L1 victim's eventual write-back would leave). Filter misses still
	// perform the real L2 access, so L2 contents keep warming with
	// exactly the fill traffic that would change them. The visit's blocks
	// share one page, so the key differs only in the block offset: hoist
	// the page base out of the loop.
	var keyBase uint64
	switch {
	case m.ctrl != nil && !entry.NC && superKey:
		keyBase = entry.Frame<<m.caShift + (vpn&m.spMask)*config.PageSize
	case m.ctrl != nil && entry.NC:
		keyBase = paBit | (entry.Frame * config.PageSize)
	default:
		keyBase = entry.Frame * config.PageSize
	}
	// Memo slot layout: bit 63 is the span-local "dirtiness applied"
	// flag, bits 62..32 a 31-bit block tag, bits 31..0 the span epoch.
	const ffDirtyBit = uint64(1) << 63
	epoch := uint64(m.ffEpoch)
	filt, mask, flog := cc.ffFilt, cc.ffMask, cc.ffLog
	fwBits, awBits := v.FirstWrite, v.AnyWrite
	block := keyBase/config.BlockSize + uint64(v.FirstBlock)
	for j := 0; j < v.Blocks; j, block, fwBits, awBits = j+1, block+1, fwBits>>1, awBits>>1 {
		blockOff := uint64(v.FirstBlock+j) * config.BlockSize
		key := keyBase + blockOff
		fw := fwBits&1 == 1
		aw := awBits&1 == 1
		slot := &filt[block&mask]
		want := uint64(uint32(block>>flog)&0x7fffffff)<<32 | epoch
		if *slot&^ffDirtyBit == want {
			// Memoized this span: the block is on-die, so the L2 is not
			// touched, except that the block's first write must reach it
			// as dirtiness. Later writes are free — the line is dirty (or
			// its write-back issued) already, exactly one write-back per
			// dirty block per span, which is what the accurate path's
			// victim traffic converges to.
			if aw && *slot&ffDirtyBit == 0 {
				*slot |= ffDirtyBit
				if !cc.l2.MarkDirty(key) {
					m.fast.FastWriteback(now, key)
				}
			}
			continue
		}
		if aw {
			// The real access below installs (or refreshes) the line
			// dirty, so the per-span dirtiness is already applied.
			*slot = want | ffDirtyBit
		} else {
			*slot = want
		}
		if hit, victim, hasVictim := cc.l2.Access(key, aw); hit {
			continue
		} else if hasVictim && victim.Dirty {
			m.fast.FastWriteback(now, victim.Addr)
		}
		m.fast.FastAccess(org.FastRequest{
			At: now, Key: key, Frame: entry.Frame, Offset: blockOff,
			NC: entry.NC, Write: fw,
		})
	}
	return nil
}
