package main

import (
	"context"
	"fmt"

	"taglessdram"
	"taglessdram/internal/config"
	"taglessdram/internal/system"
	"taglessdram/internal/trace"
)

// shift is the default 64× capacity scale every cell runs at.
const shift = 6

// cell is one simulation of a workload: a one-job taglessdram.Sweep, or,
// when cores is set, a machine built directly through the system package
// at that core count (Sweep has no core-count option).
type cell struct {
	id    string // stable name; the key of the committed digest file
	job   taglessdram.Job
	cores int
}

// run executes the cell. A panic inside the simulation comes back as an
// error: Sweep recovers its own jobs' panics, the direct path recovers
// here.
func (c cell) run(ctx context.Context) (r *taglessdram.Result, err error) {
	if c.cores == 0 {
		rs, err := taglessdram.Sweep(ctx, []taglessdram.Job{c.job}, 1)
		if err != nil {
			return nil, err
		}
		return rs[0], nil
	}
	defer func() {
		if p := recover(); p != nil {
			r, err = nil, fmt.Errorf("%s: panic: %v", c.id, p)
		}
	}()
	w, err := cellWorkload(c)
	if err != nil {
		return nil, err
	}
	m, err := system.New(manyCoreConfig(c.job.Design, c.cores), w)
	if err != nil {
		return nil, err
	}
	return m.Run(c.job.Options.Warmup, c.job.Options.Measure)
}

// manyCoreConfig is config.Default() at the given core count, scaled the
// way cmd/benchstep scales its machine.
func manyCoreConfig(d taglessdram.Design, cores int) *config.SystemConfig {
	cfg := config.Default()
	cfg.Design = d
	cfg.CPU.Cores = cores
	cfg.InPkg.SizeBytes >>= shift
	cfg.OffPkg.SizeBytes >>= shift
	cfg.CacheSize >>= shift
	return cfg
}

// cellWorkload builds the workload a cell runs.
func cellWorkload(c cell) (system.Workload, error) {
	if c.cores > 0 {
		return system.SingleProgramOn(c.job.Workload, c.cores, shift, c.job.Options.Seed)
	}
	if _, ok := trace.Mixes()[c.job.Workload]; ok {
		return system.Mix(c.job.Workload, shift, c.job.Options.Seed)
	}
	return system.SingleProgram(c.job.Workload, shift, c.job.Options.Seed)
}

func gridOptions(seed uint64) taglessdram.Options {
	o := taglessdram.DefaultOptions()
	o.Seed = seed
	return o
}

// hitGridCells is the hit-path workload: every organization on three
// programs whose references mostly stay in L1/L2 at default budgets, plus
// 16-core runs of two of them. Few references reach the L3 and almost
// none walk or evict, so it times trace generation, the step loop, the
// on-die caches and both core schedulers (runPhaseScan at 4 cores,
// runPhaseHeap at 16). An L3, DRAM or VM optimisation should not move it.
func hitGridCells(seed uint64) []cell {
	var cells []cell
	// The 16-core cells are the longest; queueing them first keeps the
	// two workers busy to the end of a pass. omnetpp on the cTLB at 16
	// cores is left out: its sixteen slices overflow the 16MB cache, so it
	// sends about 23% of its references to the L3, evicts continuously
	// and takes as long as the rest of a pass together — a miss-path cell.
	for _, c := range []struct {
		prog string
		d    taglessdram.Design
	}{{"omnetpp", taglessdram.SRAMTag}, {"libquantum", taglessdram.Tagless}, {"libquantum", taglessdram.SRAMTag}} {
		cells = append(cells, cell{
			id:    fmt.Sprintf("%s/%v/16core", c.prog, c.d),
			job:   taglessdram.Job{Design: c.d, Workload: c.prog, Options: gridOptions(seed)},
			cores: 16,
		})
	}
	for _, prog := range []string{"omnetpp", "libquantum", "sphinx3"} {
		for _, d := range taglessdram.Organizations() {
			cells = append(cells, cell{
				id:  fmt.Sprintf("%s/%v", prog, d),
				job: taglessdram.Job{Design: d, Workload: prog, Options: gridOptions(seed)},
			})
		}
	}
	return cells
}

// missGridCells is the miss-path workload: every organization on mcf,
// GemsFDTD and MIX5 with DRAM caches far smaller than their footprints,
// plus the cTLB design under the pwc and nested walk models. The small
// caches drive the paper's whole tagless path on every cTLB cell — walks,
// cold fills, victim hits, FIFO evictions, shootdowns and L1/L2
// invalidations — which the hit-path workload barely touches.
//
// Three cTLB cells are left out (see knownDefectCells): they panic in
// the GIPT at some seeds, and the timed grid must complete at every
// seed. The cTLB still runs on every program and under every walk model.
func missGridCells(seed uint64) []cell {
	var cells []cell
	for _, c := range missCells(seed) {
		if !knownDefect[c.id] {
			cells = append(cells, c)
		}
	}
	return cells
}

// missCells is every organization on each miss-path program, plus the
// cTLB under the pwc and nested walk models.
func missCells(seed uint64) []cell {
	var cells []cell
	for _, p := range []struct {
		prog string
		mb   int64
	}{{"mcf", 2}, {"MIX5", 4}, {"GemsFDTD", 4}} {
		add := func(d taglessdram.Design, walk string) {
			o := gridOptions(seed)
			o.CacheMB = p.mb
			o.WalkModel = walk
			id := fmt.Sprintf("%s@%dMB/%v", p.prog, p.mb, d)
			if walk != "" {
				id += "/" + walk
			}
			cells = append(cells, cell{id: id, job: taglessdram.Job{Design: d, Workload: p.prog, Options: o}})
		}
		for _, walk := range []string{"nested", "pwc"} {
			add(taglessdram.Tagless, walk)
		}
		for _, d := range taglessdram.Organizations() {
			add(d, "")
		}
	}
	return cells
}

// knownDefect names the miss cells that panic with "core: GIPT insert
// into cached block" (raised from Controller.HandleTLBMiss) at some
// seeds, on every pass. Over seeds 1-334: mcf@2MB/cTLB/pwc at 16 of
// them (seed 1 among them), mcf@2MB/cTLB at 7, MIX5@4MB/cTLB/pwc at 1;
// no other miss cell panicked.
var knownDefect = map[string]bool{
	"mcf@2MB/cTLB/pwc":  true,
	"mcf@2MB/cTLB":      true,
	"MIX5@4MB/cTLB/pwc": true,
}

// knownDefectCells are those cells at the run's seed, plus
// mcf@2MB/cTLB/pwc at seed 1, where it always panics. Each miss-grid run
// simulates them once after the timed phase and reports on standard
// error whether they still panic, without counting them as operations;
// once the defect is fixed they belong back in missGridCells.
func knownDefectCells(seed uint64) []cell {
	var cells []cell
	for _, c := range missCells(seed) {
		if knownDefect[c.id] {
			c.id = fmt.Sprintf("%s@seed%d", c.id, seed)
			cells = append(cells, c)
		}
	}
	if seed != 1 {
		for _, c := range missCells(1) {
			if c.id == "mcf@2MB/cTLB/pwc" {
				c.id += "@seed1"
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// The service-mix cells are SMARTS-sampled: a short accurate warm-up,
// then 1000-reference accurate windows (each after 500 references of
// detailed warming) one per 25000 references, so the functional
// fast-forward engine covers about 92% of a cell's references.
var serviceSample = taglessdram.SampleSpec{WindowRefs: 1000, PeriodRefs: 25000, WarmRefs: 500}

// servicePrograms are the two programs the service cells cycle over.
var servicePrograms = []string{"mcf", "GemsFDTD"}

func serviceOptions(seed uint64) taglessdram.Options {
	o := taglessdram.DefaultOptions()
	o.Seed = seed
	o.Warmup, o.Measure = 500_000, 20_000_000
	spec := serviceSample
	o.Sample = &spec
	return o
}

// serviceCell is the i-th cell of the service rotation (every
// organization on each service program) at the given trace seed.
func serviceCell(i int, seed uint64, id string) cell {
	orgs := taglessdram.Organizations()
	d := orgs[i%len(orgs)]
	prog := servicePrograms[(i/len(orgs))%len(servicePrograms)]
	return cell{
		id:  fmt.Sprintf("%s/%s/%v", id, prog, d),
		job: taglessdram.Job{Design: d, Workload: prog, Options: serviceOptions(seed)},
	}
}

// serviceCells is the size of the service rotation.
func serviceCells() int { return len(taglessdram.Organizations()) * len(servicePrograms) }

// warmSetCells is the service-mix warm set: the whole rotation at the
// workload seed, simulated during set-up so that warm requests replay it.
func warmSetCells(seed uint64) []cell {
	cells := make([]cell, serviceCells())
	for i := range cells {
		cells[i] = serviceCell(i, seed, "warm")
	}
	return cells
}

// coldSeed gives cold request i a trace seed of its own, distinct from
// the warm set's and from every other request's, so it always misses the
// result cache.
func coldSeed(seed uint64, i int) uint64 { return seed<<20 | uint64(i+1) }

// coldCell is cold request i of the service-mix workload.
func coldCell(seed uint64, i int) cell {
	return serviceCell(i, coldSeed(seed, i), fmt.Sprintf("cold%03d", i))
}

// committedColdCells is how many cold cells the committed digest file
// covers; later ones are checked against in-process runs only.
const committedColdCells = 140

// recordedCells lists every cell whose digest the committed file holds
// for a workload.
func recordedCells(workload string, seed uint64) []cell {
	if workload != "service-mix" {
		return gridCells(workload, seed)
	}
	cells := warmSetCells(seed)
	for i := 0; i < committedColdCells; i++ {
		cells = append(cells, coldCell(seed, i))
	}
	return cells
}
