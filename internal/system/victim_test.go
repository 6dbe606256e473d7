package system

import (
	"bytes"
	"testing"

	"taglessdram/internal/config"
)

// TestVictimShortCircuitExact drives the tagless controller's victim
// search through every configuration that feeds it — FIFO, CLOCK and LRU,
// superpage regions, the shared-page alias table, memory-modeled pwc and
// nested walks, the shared TLB topology, and the functional fast path —
// on caches small enough that evictions and forced shootdowns are
// constant. Every O(1) "no victim" answer re-checks itself against a dry
// pass over the allocation queue (the controller panics if the full pass
// would have found a victim or dropped an entry), and CheckInvariants
// recomputes the evictable and stale counts the answer rests on between
// chunks of the run and after a checkpoint restore.
func TestVictimShortCircuitExact(t *testing.T) {
	cases := []struct {
		name     string
		workload func(*testing.T) Workload
		mod      func(*config.SystemConfig)
		sampled  bool
	}{
		{name: "fifo", workload: milc},
		{name: "clock", workload: milc, mod: func(c *config.SystemConfig) { c.Tagless.Policy = config.CLOCK }},
		{name: "lru", workload: milc, mod: func(c *config.SystemConfig) { c.Tagless.Policy = config.LRU }},
		{name: "super", workload: milc, mod: func(c *config.SystemConfig) { c.Tagless.SuperpagePages = 8 }},
		{name: "alias", workload: aliasMix, mod: func(c *config.SystemConfig) { c.Tagless.SharedAliasTable = true }},
		{name: "pwc", workload: gems, mod: func(c *config.SystemConfig) { c.WalkModel = "pwc" }},
		{name: "nested", workload: gems, mod: func(c *config.SystemConfig) { c.WalkModel = "nested" }},
		{name: "shared-tlb", workload: milc, mod: func(c *config.SystemConfig) { c.TLBTopology = "shared" }},
		{name: "fast", workload: milc, sampled: true},
		{name: "fast-clock", workload: milc, sampled: true, mod: func(c *config.SystemConfig) { c.Tagless.Policy = config.CLOCK }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := scaledConfig(config.Tagless, 6)
			cfg.CacheSize = 2 * config.MB
			if tc.mod != nil {
				tc.mod(cfg)
			}
			m, err := New(cfg, tc.workload(t))
			if err != nil {
				t.Fatal(err)
			}
			m.ctrl.VerifyShortCircuits()
			check := func() {
				t.Helper()
				if err := m.ctrl.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				if err := m.Steps(50_000); err != nil {
					t.Fatal(err)
				}
				check()
				if tc.sampled {
					if err := m.FastForwardRefs(100_000); err != nil {
						t.Fatal(err)
					}
					check()
				}
			}
			// A checkpoint restore rebuilds the counts from the rows.
			var buf bytes.Buffer
			if err := m.SaveCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := New(cfg, tc.workload(t))
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.LoadCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			if err := restored.ctrl.CheckInvariants(); err != nil {
				t.Fatalf("after restore: %v", err)
			}
			st := m.ctrl.Stats()
			if st.Evictions == 0 || st.Shootdowns == 0 {
				t.Fatalf("no pressure on the victim search: %+v", st)
			}
			if cfg.Tagless.Policy != config.LRU && m.ctrl.ShortCircuits() == 0 {
				t.Fatalf("no victim search was short-circuited in %d evictions", st.Evictions)
			}
			t.Logf("%d evictions, %d shootdowns, %d short-circuits", st.Evictions, st.Shootdowns, m.ctrl.ShortCircuits())
		})
	}
}

func milc(t *testing.T) Workload { return program(t, "milc") }

func gems(t *testing.T) Workload { return program(t, "GemsFDTD") }

func aliasMix(t *testing.T) Workload { return sharedMix(t, 0.1) }

func program(t *testing.T, name string) Workload {
	t.Helper()
	w, err := SingleProgram(name, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
