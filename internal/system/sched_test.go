package system

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"taglessdram/internal/config"
	"taglessdram/internal/cpu"
	"taglessdram/internal/trace"
)

// refNextCore is the reference scheduler the run queue must match pick for
// pick: a linear scan for the active core short of target with the
// minimal clock, keeping the first (lowest id) on ties.
func refNextCore(m *Machine, target uint64) *coreCtx {
	var next *coreCtx
	for _, cc := range m.cores {
		if !cc.active || cc.cpu.Instructions >= target {
			continue
		}
		if next == nil || cc.cpu.Now() < next.cpu.Now() {
			next = cc
		}
	}
	return next
}

// refPhase is runPhase driven by the reference scan.
func refPhase(m *Machine, target uint64) error {
	for cc := refNextCore(m, target); cc != nil; cc = refNextCore(m, target) {
		if err := m.step(cc); err != nil {
			return err
		}
	}
	return nil
}

// refRun is Run driven by the reference scan.
func refRun(m *Machine, warmup, measure uint64) (*Result, error) {
	if err := refPhase(m, warmup); err != nil {
		return nil, err
	}
	m.beginMeasurement()
	if err := refPhase(m, warmup+measure); err != nil {
		return nil, err
	}
	for _, cc := range m.cores {
		cc.cpu.Drain()
	}
	m.kernel.Run(0)
	return m.collect(), nil
}

// refSteps is Steps driven by the reference scan.
func refSteps(m *Machine, n int) error {
	for i := 0; i < n; i++ {
		cc := refNextCore(m, ^uint64(0))
		if cc == nil {
			return nil
		}
		if err := m.step(cc); err != nil {
			return err
		}
	}
	return nil
}

// refFastForward is fastForward driven by the reference scan.
func refFastForward(m *Machine, n, instrTarget uint64) error {
	if err := m.ffBegin(); err != nil {
		return err
	}
	defer m.ffEnd()
	var v trace.Visit
	for done := uint64(0); done < n; done += v.Refs {
		cc := refNextCore(m, instrTarget)
		if cc == nil {
			return nil
		}
		fetchVisit(cc, &v)
		if err := m.ffVisit(cc, &v); err != nil {
			return err
		}
	}
	return nil
}

// refSampled replays RunSampled's stepping skeleton — warming prefix,
// window, randomized fast-forward gap — under the reference scan. It
// returns the references it simulated accurately and fast-forwarded.
func refSampled(m *Machine, warmup, measure uint64, spec SampleSpec) (measured, fast uint64, err error) {
	if err := refPhase(m, warmup); err != nil {
		return 0, 0, err
	}
	m.warmedTo = warmup
	m.beginMeasurement()
	target := warmup + measure
	gapBase := spec.PeriodRefs - spec.WindowRefs - spec.WarmRefs
	rngState := spec.PeriodRefs*0x9E3779B97F4A7C15 ^ spec.WindowRefs*0xBF58476D1CE4E5B9 ^ 0x94D049BB133111EB
	nextGap := func() uint64 {
		rngState += 0x9E3779B97F4A7C15
		z := rngState
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		return z % (2*gapBase + 1)
	}
	stepRefs := func(n uint64) error {
		for start := m.refs; m.refs-start < n; {
			cc := refNextCore(m, target)
			if cc == nil {
				return nil
			}
			if err := m.step(cc); err != nil {
				return err
			}
		}
		return nil
	}
	for !m.phaseDone(target) {
		start := m.refs
		if err := stepRefs(spec.WarmRefs); err != nil {
			return 0, 0, err
		}
		if err := stepRefs(spec.WindowRefs); err != nil {
			return 0, 0, err
		}
		measured += m.refs - start
		if m.phaseDone(target) {
			break
		}
		gap := nextGap()
		if gap == 0 {
			continue
		}
		start = m.refs
		if err := refFastForward(m, gap, target); err != nil {
			return 0, 0, err
		}
		fast += m.refs - start
		if m.refs == start {
			break
		}
	}
	for _, cc := range m.cores {
		cc.cpu.Drain()
	}
	m.kernel.Run(0)
	return measured, fast, nil
}

// schedRig is one machine shape of the scheduler equivalence test.
type schedRig struct {
	cores int
	build func() (Workload, error)
}

func schedRigs() []schedRig {
	return []schedRig{
		{1, func() (Workload, error) { return SingleProgramOn("mcf", 1, 6, 1) }},
		{4, func() (Workload, error) { return Mix("MIX5", 6, 1) }},
		{8, func() (Workload, error) { return MultiThread("streamcluster", 6, 1) }},
		{16, func() (Workload, error) { return SingleProgramOn("omnetpp", 16, 6, 1) }},
	}
}

func (r schedRig) machine(t *testing.T) *Machine {
	t.Helper()
	cfg := scaledConfig(config.Tagless, 6)
	cfg.CPU.Cores = r.cores
	cfg.CacheSize = 2 * config.MB // keep the miss path busy
	w, err := r.build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkpointBytes serializes a machine that has not begun measuring: its
// whole functional and timing state, for byte comparison.
func checkpointBytes(t *testing.T, m *Machine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// coreStates lists every core's clock and pipeline state.
func coreStates(m *Machine) []cpu.State {
	var out []cpu.State
	for _, cc := range m.cores {
		out = append(out, cc.cpu.State())
	}
	return out
}

// TestSchedulerHeapMatchesScan pins the one core scheduler to the
// reference min-scan on every stepping loop — Run, Steps, FastForwardRefs
// and a SMARTS-sampled run, whose windows and gaps each reload the queue —
// at 1, 4, 8 and 16 cores: any different pick would change the simulated
// state compared here.
func TestSchedulerHeapMatchesScan(t *testing.T) {
	const warm, meas = 200_000, 200_000
	spec := SampleSpec{WindowRefs: 1000, WarmRefs: 500, PeriodRefs: 5000}
	for _, rig := range schedRigs() {
		t.Run(fmt.Sprintf("%dcores", rig.cores), func(t *testing.T) {
			got, err := rig.machine(t).Run(warm, meas)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refRun(rig.machine(t), warm, meas)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Run diverged:\n got %+v\nwant %+v", got, want)
			}

			a, b := rig.machine(t), rig.machine(t)
			if err := a.Steps(100_000); err != nil {
				t.Fatal(err)
			}
			if err := refSteps(b, 100_000); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(checkpointBytes(t, a), checkpointBytes(t, b)) {
				t.Error("Steps diverged")
			}
			if err := a.FastForwardRefs(200_000); err != nil {
				t.Fatal(err)
			}
			if err := refFastForward(b, 200_000, ^uint64(0)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(checkpointBytes(t, a), checkpointBytes(t, b)) {
				t.Error("FastForwardRefs diverged")
			}

			a, b = rig.machine(t), rig.machine(t)
			rs, err := a.RunSampled(warm, 4*meas, spec)
			if err != nil {
				t.Fatal(err)
			}
			measured, fast, err := refSampled(b, warm, 4*meas, spec)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Sampled.MeasuredRefs != measured || rs.Sampled.FastRefs != fast {
				t.Errorf("sampled split %d/%d refs, reference %d/%d",
					rs.Sampled.MeasuredRefs, rs.Sampled.FastRefs, measured, fast)
			}
			if fast == 0 {
				t.Error("sampled run fast-forwarded nothing")
			}
			if !reflect.DeepEqual(coreStates(a), coreStates(b)) || a.refs != b.refs ||
				!reflect.DeepEqual(a.collect(), b.collect()) {
				t.Error("sampled run diverged")
			}
		})
	}
}
