package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"taglessdram"
	"taglessdram/internal/config"
	"taglessdram/internal/resultcache"
	"taglessdram/internal/system"
	"taglessdram/internal/trace"
)

// The traced run's layer probes time single layers through their public
// entry points, outside the workload's timed phase. Each returns metrics
// by name.

// missMachines are the miss-path rigs the step and fast-forward probe
// meters: the two miss-grid programs whose small caches keep walks, fills
// and evictions going after warm-up. The cTLB runs on GemsFDTD only: on
// mcf@2MB it hits the GIPT panic of the known-defect cells at some seeds
// (67, 138 and 144 of the first 200) within the probe's references.
var missMachines = []struct {
	prog string
	mb   int64
}{{"mcf", 2}, {"GemsFDTD", 4}}

const (
	probeWarmRefs = 400_000 // past the cold fill of a 2–4MB cache
	probeRefs     = 100_000 // per repetition and path
	probeReps     = 3
)

// probeSystem meters the accurate step (Machine.Steps) against the
// functional fast-forward (Machine.FastForwardRefs) per design on the
// miss-path machines, interleaved on the same machine, plus allocations
// per accurate reference and the cost of system.New.
func probeSystem(seed uint64, m metricSet) error {
	var news []float64
	var allocs, stepRefs float64
	for _, d := range taglessdram.Organizations() {
		var stepNs, ffNs, refs float64
		for _, mm := range missMachines {
			if d == taglessdram.Tagless && mm.prog == "mcf" {
				continue
			}
			cfg := manyCoreConfig(d, 4)
			cfg.CacheSize = mm.mb * config.MB
			if cfg.CacheSize > cfg.InPkg.SizeBytes {
				cfg.InPkg.SizeBytes = cfg.CacheSize
			}
			w, err := system.SingleProgram(mm.prog, shift, seed)
			if err != nil {
				return err
			}
			t0 := time.Now()
			mach, err := system.New(cfg, w)
			if err != nil {
				return err
			}
			news = append(news, ms(time.Since(t0)))
			if err := mach.Steps(probeWarmRefs); err != nil {
				return fmt.Errorf("%v/%s: %w", d, mm.prog, err)
			}
			mach.Drain()
			var ms0, ms1 runtime.MemStats
			for rep := 0; rep < probeReps; rep++ {
				runtime.ReadMemStats(&ms0)
				t0 := time.Now()
				if err := mach.Steps(probeRefs); err != nil {
					return fmt.Errorf("%v/%s: %w", d, mm.prog, err)
				}
				stepNs += float64(time.Since(t0).Nanoseconds())
				runtime.ReadMemStats(&ms1)
				allocs += float64(ms1.Mallocs - ms0.Mallocs)
				t0 = time.Now()
				if err := mach.FastForwardRefs(probeRefs); err != nil {
					return fmt.Errorf("%v/%s: fast-forward: %w", d, mm.prog, err)
				}
				ffNs += float64(time.Since(t0).Nanoseconds())
				refs += probeRefs
			}
		}
		stepRefs += refs
		m.add("system.step_ns_per_ref."+d.String(), stepNs/refs, "ns")
		m.add("system.ff_ns_per_ref."+d.String(), ffNs/refs, "ns")
	}
	m.add("system.allocs_per_ref", allocs/stepRefs, "count")
	m.add("system.new_ms", median(news), "ms")
	return nil
}

// probeCores meters the step at 4 cores (the scan scheduler) and 16
// cores (the heap scheduler) on the hit-path libquantum/cTLB machine.
func probeCores(seed uint64, m metricSet) error {
	for _, cores := range []int{4, 16} {
		c := cell{id: "probe", cores: cores, job: taglessdram.Job{Design: taglessdram.Tagless, Workload: "libquantum", Options: gridOptions(seed)}}
		w, err := cellWorkload(c)
		if err != nil {
			return err
		}
		mach, err := system.New(manyCoreConfig(c.job.Design, cores), w)
		if err != nil {
			return err
		}
		if err := mach.Steps(probeWarmRefs); err != nil {
			return err
		}
		mach.Drain()
		n := 5 * probeRefs
		t0 := time.Now()
		if err := mach.Steps(n); err != nil {
			return err
		}
		m.add(fmt.Sprintf("system.ns_per_ref.%dcore", cores), float64(time.Since(t0).Nanoseconds())/float64(n), "ns")
	}
	return nil
}

// probeTrace drives each cell's trace generators alone, round-robin, for
// as many references as the cell processed, and reports ns per reference.
func probeTrace(runs []cellRun, cells []cell, m metricSet) error {
	var ns, refs float64
	var sink uint64
	for i, o := range runs {
		if o.err != nil {
			continue
		}
		w, err := cellWorkload(cells[i])
		if err != nil {
			return err
		}
		var gens []*trace.Generator
		for k, p := range w.PerCore {
			g, err := trace.NewThreadGroup(p, 1, w.Seed+uint64(k)*7919)
			if err != nil {
				return err
			}
			gens = append(gens, g[0])
		}
		n := o.r.References
		t0 := time.Now()
		for j := uint64(0); j < n; j++ {
			sink += gens[j%uint64(len(gens))].Next().VAddr
		}
		ns += float64(time.Since(t0).Nanoseconds())
		refs += float64(n)
	}
	if sink == 1 {
		fmt.Fprintln(os.Stderr) // keeps the generator calls live
	}
	m.add("trace.gen_ns_per_ref", ns/refs, "ns")
	return nil
}

// probeSweep meters Job.Fingerprint over the workload's sweep cells and
// the overhead of a one-job Sweep over a direct Run of the same small job.
func probeSweep(ctx context.Context, seed uint64, cells []cell, m metricSet) error {
	var fp []float64
	for rep := 0; rep < 5; rep++ {
		for _, c := range cells {
			if c.cores > 0 {
				continue
			}
			t0 := time.Now()
			if _, err := c.job.Fingerprint(); err != nil {
				return err
			}
			fp = append(fp, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	m.add("sweep.fingerprint_us", median(fp), "us")

	o := gridOptions(seed)
	o.Warmup, o.Measure = 100_000, 100_000
	job := taglessdram.Job{Design: taglessdram.NoL3, Workload: "libquantum", Options: o}
	var run, sweep []float64
	for rep := 0; rep < 15; rep++ {
		t0 := time.Now()
		if _, err := taglessdram.Run(job.Design, job.Workload, job.Options); err != nil {
			return err
		}
		run = append(run, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := taglessdram.Sweep(ctx, []taglessdram.Job{job}, 1); err != nil {
			return err
		}
		sweep = append(sweep, ms(time.Since(t0)))
	}
	m.add("sweep.overhead_ms", median(sweep)-median(run), "ms")
	return nil
}

// probeResultCache stores and loads every completed result of the
// workload's deterministic cells in a fresh result cache.
func probeResultCache(dir string, runs []cellRun, cells []cell, m metricSet) error {
	store, err := taglessdram.OpenResultCache(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var put, get, kb []float64
	for i, o := range runs {
		if o.err != nil || cells[i].cores > 0 {
			continue
		}
		fp, err := cells[i].job.Fingerprint()
		if err != nil {
			return err
		}
		var key resultcache.Key
		if _, err := hex.Decode(key[:], []byte(fp)); err != nil {
			return err
		}
		t0 := time.Now()
		if err := store.Put(key, cells[i].id, o.r); err != nil {
			return err
		}
		put = append(put, ms(time.Since(t0)))
		t0 = time.Now()
		if _, ok := store.Get(key); !ok {
			return fmt.Errorf("result cache lost %s", cells[i].id)
		}
		get = append(get, ms(time.Since(t0)))
		if fi, err := os.Stat(filepath.Join(dir, fp+".res")); err == nil {
			kb = append(kb, float64(fi.Size())/1024)
		}
	}
	m.add("resultcache.put_ms_p50", median(put), "ms")
	m.add("resultcache.get_ms_p50", median(get), "ms")
	m.add("resultcache.entry_kb", mean(kb), "KB")
	return nil
}

// probeService exercises the sweep service for the grid workloads, which
// do not: one cold sampled cell, then warm replays of it, each with its
// server-side spans fetched and joined. It returns the spans' durations
// by name.
func probeService(ctx context.Context, seed uint64, dir string, tr *tracer, ck *checker) (map[string][]time.Duration, error) {
	s, err := startService(ctx, dir, nil, ck)
	if err != nil {
		return nil, err
	}
	defer s.close()
	c := coldCell(seed, 0)
	phases := make(map[string][]time.Duration)
	var first string
	for rep := 0; rep < 20; rep++ {
		var id string
		o := taglessdram.Options{Workers: workers, OnSweepAccepted: func(a taglessdram.SweepAccepted) { id = a.SweepID }}
		sp := tr.begin("probe "+c.id, "request", "", 0, 3)
		rs, err := taglessdram.RemoteSweep(ctx, s.ts.URL, []taglessdram.Job{c.job}, o)
		sp.req = id
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if err := taglessdram.CheckLatencyAttribution(rs[0]); err != nil {
			ck.problem("service probe: %v", err)
		}
		if d := digest(rs[0]); first == "" {
			first = d
		} else if d != first {
			ck.problem("service probe: replay digest %s, simulated %s", d, first)
		}
		raw, err := taglessdram.RemoteTrace(ctx, s.ts.URL, id)
		if err != nil {
			return nil, err
		}
		p, err := tr.joinServer(sp, id, raw)
		if err != nil {
			return nil, err
		}
		for k, v := range p {
			phases[k] = append(phases[k], v...)
		}
	}
	return phases, nil
}
