package core

import (
	"testing"
	"testing/quick"

	"taglessdram/internal/config"
	"taglessdram/internal/mmu"
	"taglessdram/internal/sim"
	"taglessdram/internal/tlb"
)

// fakeMem charges fixed latencies and counts operations.
type fakeMem struct {
	fillLat, evictLat, giptLat sim.Tick
	fills, evicts, gipts       int
}

func (m *fakeMem) FillPage(at sim.Tick, ppn, ca, offset uint64, pages int) sim.Tick {
	m.fills++
	return at + m.fillLat
}

func (m *fakeMem) EvictPage(at sim.Tick, ca, ppn uint64, pages int) sim.Tick {
	m.evicts++
	return at + m.evictLat
}

func (m *fakeMem) GIPTUpdate(at sim.Tick) sim.Tick {
	m.gipts++
	return at + m.giptLat
}

type rig struct {
	c   *Controller
	m   *fakeMem
	k   *sim.Kernel
	pt  *mmu.PageTable
	cfg Config
}

func newRig(t *testing.T, blocks int, mutate func(*Config)) *rig {
	t.Helper()
	cfg := Config{Blocks: blocks, Alpha: 1, Policy: config.FIFO, WalkCycles: 40}
	if mutate != nil {
		mutate(&cfg)
	}
	m := &fakeMem{fillLat: 500, evictLat: 700, giptLat: 100}
	k := sim.NewKernel()
	c := NewController(cfg, m, k)
	pt := mmu.NewPageTable(0, mmu.NewFrameAllocator(1<<20))
	return &rig{c: c, m: m, k: k, pt: pt, cfg: cfg}
}

// miss drives one TLB miss at the given time and settles all events.
func (r *rig) miss(t *testing.T, at sim.Tick, vpn uint64) (tlb.Entry, sim.Tick, MissKind) {
	t.Helper()
	r.k.Advance(at)
	e, done, kind, err := r.c.HandleTLBMiss(at, 0, r.pt, vpn, 0)
	if err != nil {
		t.Fatalf("HandleTLBMiss(%d): %v", vpn, err)
	}
	return e, done, kind
}

// settle runs all pending events.
func (r *rig) settle() { r.k.Run(0) }

func TestColdFillPath(t *testing.T) {
	r := newRig(t, 16, nil)
	e, done, kind := r.miss(t, 0, 7)
	if kind != MissColdFill {
		t.Fatalf("kind = %v, want cold fill", kind)
	}
	// Walk(40) + fill(500) + GIPT update(100).
	if done != 640 {
		t.Fatalf("done = %d, want 640", done)
	}
	if e.NC || e.Frame != 0 {
		t.Fatalf("entry = %+v, want CA-0", e)
	}
	if r.m.fills != 1 || r.m.gipts != 1 {
		t.Fatalf("mem ops = %d fills, %d gipt updates", r.m.fills, r.m.gipts)
	}
	r.settle()
	// After the fill event, the PTE points into the cache.
	pte, _ := r.pt.Lookup(7)
	if !pte.VC || pte.Frame != 0 || pte.PU {
		t.Fatalf("PTE = %+v, want VC, CA-0, PU clear", pte)
	}
	if r.c.GIPT().Entry(0).State != Cached {
		t.Fatalf("block state = %v", r.c.GIPT().Entry(0).State)
	}
	if err := r.c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVictimHitZeroPenalty(t *testing.T) {
	r := newRig(t, 16, nil)
	r.miss(t, 0, 7)
	r.settle()
	// Second miss to the same page: in-package victim hit — the handler
	// costs only the walk (Table 1, row 3).
	_, done, kind := r.miss(t, 10000, 7)
	if kind != MissVictimHit {
		t.Fatalf("kind = %v, want victim hit", kind)
	}
	if done != 10000+40 {
		t.Fatalf("done = %d, want walk-only 10040", done)
	}
	if r.m.fills != 1 {
		t.Fatalf("fills = %d, want 1 (no duplicate fill)", r.m.fills)
	}
}

func TestNonCacheablePath(t *testing.T) {
	r := newRig(t, 16, nil)
	if err := r.pt.SetNonCacheable(9); err != nil {
		t.Fatal(err)
	}
	e, done, kind := r.miss(t, 0, 9)
	if kind != MissNonCacheable || !e.NC {
		t.Fatalf("kind = %v, entry = %+v", kind, e)
	}
	if done != 40 {
		t.Fatalf("done = %d, want walk-only", done)
	}
	if r.m.fills != 0 {
		t.Fatal("non-cacheable page was filled")
	}
	if r.c.Stats().NonCacheable != 1 {
		t.Fatalf("stats = %+v", r.c.Stats())
	}
}

func TestPendingWaitBusyWaits(t *testing.T) {
	r := newRig(t, 16, nil)
	// Core 0 starts a fill at t=0 (completes at 640). Core 1 misses the
	// same page at t=100 and must busy-wait, not duplicate the fill.
	r.k.Advance(0)
	_, done0, _, err := r.c.HandleTLBMiss(0, 0, r.pt, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.k.Advance(100)
	e1, done1, kind, err := r.c.HandleTLBMiss(100, 1, r.pt, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if kind != MissPendingWait {
		t.Fatalf("kind = %v, want pending wait", kind)
	}
	if done1 != done0 {
		t.Fatalf("waiter done = %d, want fill completion %d", done1, done0)
	}
	if e1.Frame != 0 {
		t.Fatalf("waiter got CA-%d, want CA-0", e1.Frame)
	}
	if r.m.fills != 1 {
		t.Fatalf("fills = %d, want 1", r.m.fills)
	}
	r.settle()
	// Both cores resident.
	if got := r.c.GIPT().Entry(0).Residence; got != 0b11 {
		t.Fatalf("residence = %b, want 11", got)
	}
}

func TestFigure5WalkThrough(t *testing.T) {
	// Reproduce the paper's running example: fill VA-3, evict the oldest
	// non-resident block, then victim-hit VA-2.
	r := newRig(t, 4, nil)
	// Pre-populate VA-0..VA-2 as cached (CA-0..CA-2), like Figure 5(a).
	for v := uint64(0); v <= 2; v++ {
		r.miss(t, sim.Tick(v*1000), v)
		r.settle()
	}
	// Drop TLB residence of VA-0..2 (they are outside the TLB in the
	// example's initial state).
	for ca := uint64(0); ca <= 2; ca++ {
		r.c.NoteTLBEviction(0, tlb.Entry{Frame: ca})
	}
	if r.c.FreeBlocks() != 1 {
		t.Fatalf("free blocks = %d, want 1 (α)", r.c.FreeBlocks())
	}

	// Step 1: access VA-3 → off-package miss, fill into CA-3 (the free
	// block), and the oldest block (CA-0) goes to the free queue.
	e, _, kind := r.miss(t, 10000, 3)
	if kind != MissColdFill || e.Frame != 3 {
		t.Fatalf("step1 = %v CA-%d, want cold fill CA-3", kind, e.Frame)
	}
	r.settle()

	// Step 2: the eviction daemon freed CA-0 and restored its PTE to PA.
	pte0, _ := r.pt.Lookup(0)
	if pte0.VC {
		t.Fatalf("VA-0 PTE still cached: %+v", pte0)
	}
	if r.c.GIPT().Entry(0).State != Free {
		t.Fatalf("CA-0 state = %v, want free", r.c.GIPT().Entry(0).State)
	}
	if r.c.FreeBlocks() != 1 {
		t.Fatalf("free blocks after eviction = %d, want 1", r.c.FreeBlocks())
	}

	// Step 3: access VA-2 → in-package victim hit at CA-2.
	e2, _, kind2 := r.miss(t, 20000, 2)
	if kind2 != MissVictimHit || e2.Frame != 2 {
		t.Fatalf("step3 = %v CA-%d, want victim hit CA-2", kind2, e2.Frame)
	}
	if err := r.c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	r := newRig(t, 2, nil)
	r.miss(t, 0, 0)
	r.settle()
	r.c.Touch(700, 0, true) // dirty the page
	r.c.NoteTLBEviction(0, tlb.Entry{Frame: 0})
	// Fill a second page: consumes the last free block, so CA-0 is
	// selected for eviction and must be written back.
	r.miss(t, 1000, 1)
	r.settle()
	if r.m.evicts != 1 {
		t.Fatalf("evict ops = %d, want 1 (dirty write-back)", r.m.evicts)
	}
	if r.c.Stats().Writebacks != 1 {
		t.Fatalf("stats = %+v", r.c.Stats())
	}
}

func TestCleanEvictionSkipsWriteback(t *testing.T) {
	r := newRig(t, 2, nil)
	r.miss(t, 0, 0)
	r.settle()
	r.c.NoteTLBEviction(0, tlb.Entry{Frame: 0})
	r.miss(t, 1000, 1)
	r.settle()
	if r.m.evicts != 0 {
		t.Fatalf("clean eviction wrote back: %d ops", r.m.evicts)
	}
	if r.c.Stats().Evictions != 1 {
		t.Fatalf("stats = %+v", r.c.Stats())
	}
}

func TestResidentBlocksNotEvicted(t *testing.T) {
	r := newRig(t, 3, nil)
	r.miss(t, 0, 0)
	r.miss(t, 1000, 1)
	r.settle()
	// VA-0 stays TLB-resident; VA-1's residence is cleared.
	r.c.NoteTLBEviction(0, tlb.Entry{Frame: 1})
	// Fill VA-2: takes the last free block; the victim must be CA-1
	// (CA-0 is resident) even though CA-0 is FIFO-older.
	r.miss(t, 2000, 2)
	r.settle()
	if r.c.GIPT().Entry(0).State != Cached {
		t.Fatalf("resident CA-0 evicted; state = %v", r.c.GIPT().Entry(0).State)
	}
	if r.c.GIPT().Entry(1).State != Free {
		t.Fatalf("CA-1 state = %v, want free", r.c.GIPT().Entry(1).State)
	}
}

func TestVictimHitRescuesPendingEvict(t *testing.T) {
	r := newRig(t, 3, nil)
	r.miss(t, 0, 0)
	r.miss(t, 1000, 1)
	r.settle()
	r.c.NoteTLBEviction(0, tlb.Entry{Frame: 0})
	r.c.NoteTLBEviction(0, tlb.Entry{Frame: 1})
	// Fill VA-2 at t=2000 but do NOT settle: CA-0 is now pending-evict.
	r.k.Advance(2000)
	_, _, _, err := r.c.HandleTLBMiss(2000, 0, r.pt, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.c.GIPT().Entry(0).State != PendingEvict {
		t.Fatalf("CA-0 state = %v, want pending-evict", r.c.GIPT().Entry(0).State)
	}
	// Victim hit VA-0 before the daemon runs: rescue.
	e, _, kind, err := r.c.HandleTLBMiss(2001, 0, r.pt, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if kind != MissVictimHit || e.Frame != 0 {
		t.Fatalf("rescue = %v CA-%d", kind, e.Frame)
	}
	if r.c.GIPT().Entry(0).State != Cached {
		t.Fatalf("rescued state = %v", r.c.GIPT().Entry(0).State)
	}
	r.settle()
	// The daemon must have skipped the rescued block and picked CA-1.
	if r.c.GIPT().Entry(0).State != Cached {
		t.Fatal("rescued block was evicted anyway")
	}
	if r.c.Stats().Rescues != 1 {
		t.Fatalf("stats = %+v", r.c.Stats())
	}
	if err := r.c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShootdownWhenAllResident(t *testing.T) {
	r := newRig(t, 3, nil)
	var shot []uint64
	r.c.ShootdownHook = func(ca, vpn uint64, residence uint64) {
		shot = append(shot, vpn)
	}
	r.miss(t, 0, 0)
	r.settle()
	r.miss(t, 1000, 1)
	r.settle()
	// Third fill consumes the last free block while every cached block is
	// TLB-resident: replenishing α forces a shootdown of the oldest page.
	r.miss(t, 2000, 2)
	r.settle()
	if len(shot) != 1 || shot[0] != 0 {
		t.Fatalf("shootdowns = %v, want exactly [0]", shot)
	}
	if r.c.Stats().Shootdowns != 1 {
		t.Fatalf("stats = %+v", r.c.Stats())
	}
}

func TestSynchronousEvictionAblation(t *testing.T) {
	r := newRig(t, 2, func(c *Config) { c.SynchronousEviction = true })
	r.miss(t, 0, 0)
	r.settle()
	r.miss(t, 10000, 1)
	r.settle()
	r.c.NoteTLBEviction(0, tlb.Entry{Frame: 0})
	r.c.Touch(10000, 0, true) // dirty CA-0
	// Third fill: no free blocks, and no daemon pre-freed any — the
	// eviction (700) lands on the access path before the fill.
	_, done, kind := r.miss(t, 20000, 2)
	if kind != MissColdFill {
		t.Fatalf("kind = %v", kind)
	}
	// walk(40) + evict(700) + fill(500) + gipt(100) = 21340.
	if done != 21340 {
		t.Fatalf("done = %d, want 21340 (eviction on access path)", done)
	}
	if r.c.Stats().SyncEvictions != 1 {
		t.Fatalf("stats = %+v", r.c.Stats())
	}
}

func TestCachedGIPTAblation(t *testing.T) {
	r := newRig(t, 16, func(c *Config) { c.CachedGIPT = true; c.CachedGIPTCycles = 6 })
	_, done, _ := r.miss(t, 0, 0)
	// walk(40) + fill(500) + cached GIPT(6).
	if done != 546 {
		t.Fatalf("done = %d, want 546", done)
	}
	if r.m.gipts != 0 {
		t.Fatal("cached-GIPT ablation still charged full GIPT writes")
	}
}

func TestLRUPolicySelectsColdest(t *testing.T) {
	r := newRig(t, 3, func(c *Config) { c.Policy = config.LRU })
	r.miss(t, 0, 0)
	r.miss(t, 1000, 1)
	r.settle()
	for ca := uint64(0); ca <= 1; ca++ {
		r.c.NoteTLBEviction(0, tlb.Entry{Frame: ca})
	}
	// Touch CA-0 recently: LRU must evict CA-1 even though CA-0 is older
	// in FIFO order.
	r.c.Touch(5000, 0, false)
	r.miss(t, 6000, 2)
	r.settle()
	if r.c.GIPT().Entry(0).State != Cached {
		t.Fatal("LRU evicted the recently touched block")
	}
	if r.c.GIPT().Entry(1).State != Free {
		t.Fatalf("CA-1 state = %v, want free", r.c.GIPT().Entry(1).State)
	}
}

func TestCLOCKSecondChance(t *testing.T) {
	r := newRig(t, 3, func(c *Config) { c.Policy = config.CLOCK })
	r.miss(t, 0, 0)
	r.miss(t, 1000, 1)
	r.settle()
	for ca := uint64(0); ca <= 1; ca++ {
		r.c.NoteTLBEviction(0, tlb.Entry{Frame: ca})
	}
	// Touch CA-0: its reference bit grants a second chance, so the
	// FIFO-older CA-0 survives and CA-1 is evicted.
	r.c.Touch(5000, 0, false)
	r.miss(t, 6000, 2)
	r.settle()
	if r.c.GIPT().Entry(0).State != Cached {
		t.Fatal("CLOCK evicted the referenced block despite its second chance")
	}
	if r.c.GIPT().Entry(1).State != Free {
		t.Fatalf("CA-1 state = %v, want free", r.c.GIPT().Entry(1).State)
	}
	if err := r.c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCLOCKEvictsAfterBitCleared(t *testing.T) {
	r := newRig(t, 2, func(c *Config) { c.Policy = config.CLOCK })
	r.miss(t, 0, 0)
	r.settle()
	r.c.NoteTLBEviction(0, tlb.Entry{Frame: 0})
	r.c.Touch(100, 0, false) // ref bit set
	// Only CA-0 is evictable: CLOCK must clear its bit and still evict it
	// on the second pass rather than spin forever.
	r.miss(t, 1000, 1)
	r.settle()
	if r.c.GIPT().Entry(0).State != Free {
		t.Fatalf("CA-0 state = %v, want free after second pass", r.c.GIPT().Entry(0).State)
	}
}

func TestEvictHookFires(t *testing.T) {
	r := newRig(t, 2, nil)
	var hooks int
	r.c.EvictHook = func(at sim.Tick, ca, ppn uint64, dirty bool) { hooks++ }
	r.miss(t, 0, 0)
	r.settle()
	r.c.NoteTLBEviction(0, tlb.Entry{Frame: 0})
	r.miss(t, 1000, 1)
	r.settle()
	if hooks != 1 {
		t.Fatalf("evict hook fired %d times, want 1", hooks)
	}
}

func TestNoteTLBEvictionIgnoresNC(t *testing.T) {
	r := newRig(t, 4, nil)
	r.miss(t, 0, 0)
	r.settle()
	// An NC entry whose frame collides with CA-0 must not clear CA-0's
	// residence.
	r.c.NoteTLBEviction(0, tlb.Entry{Frame: 0, NC: true})
	if !r.c.GIPT().Resident(0) {
		t.Fatal("NC eviction cleared residence of a cached block")
	}
}

func TestAlphaMaintainsFreePool(t *testing.T) {
	r := newRig(t, 8, func(c *Config) { c.Alpha = 3 })
	for v := uint64(0); v < 8; v++ {
		r.miss(t, sim.Tick(v*2000), v)
		r.settle()
		r.c.NoteTLBEviction(0, tlb.Entry{Frame: r.mustCA(t, v)})
	}
	r.settle()
	if free := r.c.FreeBlocks(); free < 3 {
		t.Fatalf("free blocks = %d, want ≥ α=3", free)
	}
	if err := r.c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// mustCA returns the cache address a VPN currently maps to.
func (r *rig) mustCA(t *testing.T, vpn uint64) uint64 {
	t.Helper()
	pte, ok := r.pt.Lookup(vpn)
	if !ok || !pte.VC {
		t.Fatalf("VPN %d not cached: %+v", vpn, pte)
	}
	return pte.Frame
}

func TestConstructorPanics(t *testing.T) {
	m := &fakeMem{}
	k := sim.NewKernel()
	cases := []struct {
		name string
		fn   func()
	}{
		{"zero blocks", func() { NewController(Config{Blocks: 0, WalkCycles: 1}, m, k) }},
		{"alpha too big", func() { NewController(Config{Blocks: 2, Alpha: 3, WalkCycles: 1}, m, k) }},
		{"zero walk", func() { NewController(Config{Blocks: 2, Alpha: 1}, m, k) }},
		{"nil mem", func() { NewController(Config{Blocks: 2, Alpha: 1, WalkCycles: 1}, nil, k) }},
		{"nil kernel", func() { NewController(Config{Blocks: 2, Alpha: 1, WalkCycles: 1}, m, nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestMissKindStrings(t *testing.T) {
	for k, want := range map[MissKind]string{
		MissNonCacheable: "non-cacheable",
		MissVictimHit:    "victim-hit",
		MissColdFill:     "cold-fill",
		MissPendingWait:  "pending-wait",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestBlockStateStrings(t *testing.T) {
	for s, want := range map[BlockState]string{
		Free: "free", Filling: "filling", Cached: "cached", PendingEvict: "pending-evict",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", uint8(s), s.String())
		}
	}
}

// Property: under an arbitrary stream of misses and TLB evictions, the
// controller's invariants hold and every handler result is consistent
// (a non-NC entry's frame is a valid block index).
func TestControllerInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		r := newRigQuick()
		for i, op := range ops {
			vpn := uint64(op % 32)
			at := sim.Tick(i * 1500)
			r.k.Advance(at)
			switch op % 4 {
			case 0, 1: // miss
				e, done, _, err := r.c.HandleTLBMiss(at, int(op%2), r.pt, vpn, 0)
				if err != nil {
					return false
				}
				if done < at {
					return false
				}
				if !e.NC && e.Frame >= uint64(r.cfg.Blocks) {
					return false
				}
			case 2: // drop residence (TLB eviction)
				if pte, ok := r.pt.Lookup(vpn); ok && pte.VC {
					r.c.NoteTLBEviction(int(op%2), tlb.Entry{Frame: pte.Frame})
				}
			case 3: // touch with write
				if pte, ok := r.pt.Lookup(vpn); ok && pte.VC {
					r.c.Touch(at, pte.Frame, true)
				}
			}
		}
		r.k.Run(0)
		return r.c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func newRigQuick() *rig {
	cfg := Config{Blocks: 8, Alpha: 2, Policy: config.FIFO, WalkCycles: 40}
	m := &fakeMem{fillLat: 500, evictLat: 700, giptLat: 100}
	k := sim.NewKernel()
	return &rig{c: NewController(cfg, m, k), m: m, k: k,
		pt: mmu.NewPageTable(0, mmu.NewFrameAllocator(1<<20)), cfg: cfg}
}

// Property: fills never exceed distinct cacheable pages touched (the PU bit
// prevents duplicate fills), as long as nothing is evicted.
func TestNoDuplicateFillsProperty(t *testing.T) {
	f := func(vpns []uint8) bool {
		r := newRigQuick()
		distinct := map[uint64]bool{}
		for i, v := range vpns {
			vpn := uint64(v % 6) // ≤ 6 pages in an 8-block cache: no evictions
			at := sim.Tick(i * 100)
			r.k.Advance(at)
			if _, _, _, err := r.c.HandleTLBMiss(at, 0, r.pt, vpn, 0); err != nil {
				return false
			}
			distinct[vpn] = true
		}
		r.k.Run(0)
		return r.m.fills == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGIPTBasics(t *testing.T) {
	g := NewGIPT(4)
	if g.Blocks() != 4 || g.FreeCount() != 4 || g.CachedCount() != 0 {
		t.Fatalf("fresh GIPT: %d blocks, %d free", g.Blocks(), g.FreeCount())
	}
	pte := &mmu.PTE{Frame: 9}
	g.Insert(2, 9, pte, 5)
	if g.Entry(2).State != Filling || g.Entry(2).PPN != 9 {
		t.Fatalf("entry = %+v", g.Entry(2))
	}
	g.SetResidence(2, 3, true)
	if !g.Resident(2) {
		t.Fatal("residence bit lost")
	}
	g.SetResidence(2, 3, false)
	if g.Resident(2) {
		t.Fatal("residence bit stuck")
	}
	g.SetState(2, Cached)
	if g.CachedCount() != 1 {
		t.Fatalf("cached = %d", g.CachedCount())
	}
	g.Invalidate(2)
	if g.FreeCount() != 4 {
		t.Fatal("invalidate did not free")
	}
}

func TestGIPTDoubleInsertPanics(t *testing.T) {
	g := NewGIPT(2)
	g.Insert(0, 1, &mmu.PTE{}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double insert")
		}
	}()
	g.Insert(0, 2, &mmu.PTE{}, 1)
}

func TestGIPTZeroBlocksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGIPT(0)
}

func TestFreeQueueFIFO(t *testing.T) {
	var q FreeQueue
	if _, ok := q.Dequeue(); ok {
		t.Fatal("empty dequeue succeeded")
	}
	for i := uint64(0); i < 200; i++ {
		q.Enqueue(i)
	}
	for i := uint64(0); i < 200; i++ {
		got, ok := q.Dequeue()
		if !ok || got != i {
			t.Fatalf("dequeue %d = %d,%v", i, got, ok)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d", q.Len())
	}
}

// Property: FreeQueue preserves FIFO order under interleaved operations.
func TestFreeQueueOrderProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var q FreeQueue
		var model []uint64
		next := uint64(0)
		for _, op := range ops {
			if op%3 != 0 || len(model) == 0 {
				q.Enqueue(next)
				model = append(model, next)
				next++
			} else {
				got, ok := q.Dequeue()
				if !ok || got != model[0] {
					return false
				}
				model = model[1:]
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCustomWalkFunc(t *testing.T) {
	r := newRig(t, 16, nil)
	var calls int
	r.c.SetWalkFunc(func(at sim.Tick, coreID int, vpn uint64) sim.Tick {
		calls++
		return at + 123
	})
	_, done, kind := r.miss(t, 0, 7)
	if kind != MissColdFill {
		t.Fatalf("kind = %v", kind)
	}
	// walk(123) + fill(500) + GIPT(100).
	if done != 723 {
		t.Fatalf("done = %d, want 723", done)
	}
	if calls != 1 {
		t.Fatalf("walk func called %d times", calls)
	}
	// A walk function returning the past is clamped.
	r.c.SetWalkFunc(func(at sim.Tick, coreID int, vpn uint64) sim.Tick { return 0 })
	_, done2, _ := r.miss(t, 5000, 8)
	if done2 < 5000 {
		t.Fatalf("handler completed in the past: %d", done2)
	}
}

func TestRegionModeFillsWholeRegion(t *testing.T) {
	r := newRig(t, 4, func(c *Config) { c.RegionPages = 4 })
	// Use a region-capable page table walk: vpn 5 → region base 4.
	e, _, kind := r.miss(t, 0, 5)
	if kind != MissColdFill {
		t.Fatalf("kind = %v", kind)
	}
	r.settle()
	// The region PTE covers every page of the region: a miss on vpn 6
	// (same region) is a victim hit on the same block.
	e2, _, kind2 := r.miss(t, 1000, 6)
	if kind2 != MissVictimHit || e2.Frame != e.Frame {
		t.Fatalf("second page of region: %v CA-%d, want victim hit CA-%d",
			kind2, e2.Frame, e.Frame)
	}
	if r.m.fills != 1 {
		t.Fatalf("fills = %d, want 1 region fill", r.m.fills)
	}
	if err := r.c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
