// Command perfbench is the repository benchmark. It drives the simulator
// only through its public entry points (taglessdram.Sweep, Run,
// RemoteSweep, Job.Fingerprint and NewSweepServer; system.New,
// Machine.Run, Steps and FastForwardRefs; the trace generators; the
// result cache) on one of three workloads, checks every output, and
// prints one JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (set-up time,
// simulated throughput, peak RSS, warm and cold latency). With --trace 1
// the same workload runs with spans and a CPU profile on alternate
// segments, followed by single-layer probes, and the metrics are the
// per-layer ones; the spans land in .bench_build/perfbench/. Every digest
// the run saw is printed before the JSON line, so two commits' outputs
// can be diffed.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload miss-grid --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"taglessdram"
)

// processStart stands in for the process start: package initialisation
// runs first thing.
var processStart = time.Now()

// workloads are the benchmark's workloads. BENCHMARK.json runs the two
// grids only: service-mix's times drifted by 20-30% within minutes with
// the host and did not follow the host-speed probe (hostprobe.go), so no
// bound on them held from one set of runs to the next. Run it by hand.
var workloads = []string{"hit-grid", "miss-grid", "service-mix"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", strings.Join(workloads, " | "))
	seed := flag.Uint64("seed", 1, "workload seed: every trace seed derives from it")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	record := flag.Bool("record-digests", false, "print the digest of every recorded cell (the committed file's format) and exit")
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload", strings.Join(workloads, "|"), "--seed N --seconds S --trace 0|1")
		return 2
	}
	out := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(out, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	ctx := context.Background()
	ck := newChecker(*workload, *seed)

	if *record {
		cells := recordedCells(*workload, *seed)
		for i, o := range runCells(ctx, cells, nil, 0, "", nil) {
			if o.err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cells[i].id, o.err)
				continue
			}
			ck.check(cells[i], o.r)
		}
		ck.writeDigests(os.Stdout)
		return 0
	}

	b := &bench{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		tmp: tmp, ck: ck, m: make(metricSet),
	}
	if *traced == 1 {
		b.tr = newTracer()
		b.prof = &profiler{dir: tmp}
	}
	if err := b.run(ctx); err != nil {
		for _, p := range ck.problems {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.tr != nil {
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", b.tr.count(), path)
	}

	ck.writeDigests(os.Stdout)
	for _, p := range ck.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	for _, name := range sortedKeys(b.m) {
		fmt.Fprintf(os.Stderr, "%-36s %14.6g %s\n", name, b.m[name].Value, b.m[name].Unit)
	}
	res := result{Correct: len(ck.problems) == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: b.m}
	fmt.Fprintf(os.Stderr, "operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	tmp      string
	ck       *checker
	m        metricSet
	tr       *tracer // nil on the untraced run
	prof     *profiler
}

// Set-up repeats per run; setup_s is their median.
const (
	gridSetups    = 201
	serviceSetups = 3
)

func (b *bench) run(ctx context.Context) error {
	var setups []float64
	var cells []cell
	var runs []cellRun // the workload's deterministic cells, for the counters
	var t *timed
	var err error
	slow := []float64{1} // host slowdowns around the timed phase
	if b.workload == "service-mix" {
		var svc *service
		setups, err = setUp(serviceSetups, func(rep int) error {
			if svc != nil {
				svc.close()
			}
			var err error
			svc, err = startService(ctx, filepath.Join(b.tmp, fmt.Sprintf("service-%d", rep)), warmSetCells(b.seed), b.ck)
			return err
		})
		if err != nil {
			return err
		}
		t, err = runService(ctx, svc, b.seed, b.ck, b.seconds, b.tr, b.prof)
		svc.close()
		cells, runs = svc.warm, svc.warmRuns
	} else {
		setups, err = setUp(gridSetups, func(int) error {
			cells = gridCells(b.workload, b.seed)
			for _, c := range cells {
				if c.cores == 0 {
					if _, err := c.job.Fingerprint(); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		storeDir := filepath.Join(b.tmp, "grid")
		if err := os.MkdirAll(storeDir, 0o755); err != nil {
			return err
		}
		if b.tr == nil {
			slow = probeHost()
		}
		t, runs, err = runGrid(ctx, cells, b.ck, b.seconds, b.tr, b.prof, storeDir)
		if b.tr == nil {
			slow = append(slow, probeHost()...)
		}
		if err == nil && b.workload == "miss-grid" {
			reportKnownDefects(ctx, b.seed)
		}
	}
	if err != nil {
		return err
	}

	if b.tr == nil {
		// The grids' times at nominal host speed (see hostprobe.go); the
		// factor is 1 for service-mix.
		f := median(slow)
		raw := metricSet{}
		raw.add("setup_s", median(setups), "s")
		raw.add("sim_mrefs_per_s", t.mrefsPerSec(false), "Mref/s")
		raw.add("warm_ms_p50", percentile(t.warmMS, 0.50), "ms")
		raw.add("warm_ms_p95", percentile(t.warmMS, 0.95), "ms")
		raw.add("cold_s_p50", percentile(t.coldS, 0.50), "s")
		for name, v := range raw {
			if name == "sim_mrefs_per_s" {
				b.m.add(name, v.Value*f, v.Unit)
			} else {
				b.m.add(name, v.Value/f, v.Unit)
			}
		}
		b.m.add("max_rss_mb", maxRSSMB(), "MB")
		fmt.Fprintf(os.Stderr, "host slowdown %.4f (rounds %.3f); raw:", f, slow)
		for _, name := range sortedKeys(raw) {
			fmt.Fprintf(os.Stderr, " %s=%.6g", name, raw[name].Value)
		}
		fmt.Fprintln(os.Stderr)
		n95 := len(t.warmMS) - int(math.Ceil(0.95*float64(len(t.warmMS))))
		fmt.Fprintf(os.Stderr, "samples: setup=%d throughput segments=%d warm=%d (%d beyond p95) cold=%d\n",
			len(setups), len(t.segments), len(t.warmMS), n95, len(t.coldS))
		return nil
	}
	return b.layers(ctx, cells, runs, t)
}

// setUp runs a workload's set-up reps times and returns each duration in
// seconds; the first counts from process start.
func setUp(reps int, once func(rep int) error) ([]float64, error) {
	var secs []float64
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = processStart
		}
		if err := once(rep); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, nil
}

// reportKnownDefects simulates the miss cells left out of the grid for
// their known panic, once each, and says on standard error which still
// panic.
func reportKnownDefects(ctx context.Context, seed uint64) {
	cells := knownDefectCells(seed)
	for i, o := range runCells(ctx, cells, nil, 0, "", nil) {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "known defect: %s: %v\n", cells[i].id, o.err)
		} else {
			fmt.Fprintf(os.Stderr, "known defect: %s completed, digest %s\n", cells[i].id, digest(o.r))
		}
	}
}

func gridCells(workload string, seed uint64) []cell {
	if workload == "hit-grid" {
		return hitGridCells(seed)
	}
	return missGridCells(seed)
}

// layers reports the per-layer metrics of a traced run.
func (b *bench) layers(ctx context.Context, cells []cell, runs []cellRun, t *timed) error {
	m := b.m
	u, tr := t.mrefsPerSec(false), t.mrefsPerSec(true)
	m.add("tracing.mrefs_per_s_untraced", u, "Mref/s")
	m.add("tracing.mrefs_per_s_traced", tr, "Mref/s")
	if u > 0 {
		m.add("tracing.overhead_frac", 1-tr/u, "frac")
	}

	fr, err := b.prof.layerFractions()
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		m.add(l+".cpu_frac", fr[l], "frac")
	}
	m.add("runtime.gc_cpu_frac", b.prof.gcFrac(), "frac")

	// Simulated counts of the workload's deterministic cells.
	var lookups, tlbMiss, l3, bytes, events, refs float64
	var walks, evictions, shootdowns float64
	for _, o := range runs {
		if o.err != nil {
			continue
		}
		r := o.r
		lookups += float64(r.TLBLookups)
		tlbMiss += float64(r.TLBMisses)
		l3 += float64(r.L3Accesses)
		bytes += float64(r.InPkgBytes + r.OffPkgBytes)
		events += float64(r.KernelEvents)
		refs += float64(r.References)
		walks += float64(r.Ctrl.Walks)
		evictions += float64(r.Ctrl.Evictions)
		shootdowns += float64(r.Ctrl.Shootdowns)
	}
	m.add("tlb.misses_per_kref", 1000*tlbMiss/lookups, "count")
	m.add("org.l3_per_kref", 1000*l3/lookups, "count")
	m.add("dram.bytes_per_ref", bytes/lookups, "B")
	m.add("sim.events_per_kref", 1000*events/refs, "count")
	m.add("core.walks", walks, "count")
	m.add("core.evictions", evictions, "count")
	m.add("core.shootdowns", shootdowns, "count")

	// Host time per reference of the workload's own cells, by design.
	for _, d := range taglessdram.Organizations() {
		var ns, n float64
		for _, s := range t.spans {
			if s.design == d {
				ns += float64(s.wall.Nanoseconds())
				n += float64(s.refs)
			}
		}
		if n > 0 {
			m.add("system.ns_per_ref."+d.String(), ns/n, "ns")
		}
	}
	m.add("resultcache.hit_ratio", t.hitRatio, "frac")

	phases := t.phases
	if phases == nil {
		phases, err = probeService(ctx, b.seed, filepath.Join(b.tmp, "probe-service"), b.tr, b.ck)
		if err != nil {
			return fmt.Errorf("service probe: %w", err)
		}
	}
	for _, p := range []struct{ span, metric string }{
		{"validate", "validate"}, {"cache-lookup", "cache-lookup"}, {"simulate", "simulate"},
		{"encode", "encode"}, {"streamed", "stream"},
	} {
		var v []float64
		for _, d := range phases[p.span] {
			v = append(v, ms(d))
		}
		m.add("sweepd."+p.metric+"_ms_p50", median(v), "ms")
	}
	m.add("sweepd.traces_evicted", float64(t.tracesEvicted), "count")

	if err := probeTrace(runs, cells, m); err != nil {
		return fmt.Errorf("trace probe: %w", err)
	}
	if err := probeSystem(b.seed, m); err != nil {
		return fmt.Errorf("system probe: %w", err)
	}
	if err := probeCores(b.seed, m); err != nil {
		return fmt.Errorf("core-count probe: %w", err)
	}
	if err := probeSweep(ctx, b.seed, cells, m); err != nil {
		return fmt.Errorf("sweep probe: %w", err)
	}
	if err := probeResultCache(filepath.Join(b.tmp, "probe-cache"), runs, cells, m); err != nil {
		return fmt.Errorf("result-cache probe: %w", err)
	}
	m.add("tracing.spans", float64(b.tr.count()), "count")
	return nil
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile is the nearest-rank p-quantile (0 for no samples).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
