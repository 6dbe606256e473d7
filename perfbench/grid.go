package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"taglessdram"
)

// workers is the simulation fan-out of every workload: the benchmark is
// sized for a 2-core machine.
const workers = 2

// warmPerCell is how many warm grid replays a worker runs after each cold
// cell: enough for ten replays beyond the 95th percentile in a run.
const warmPerCell = 2

// cellRun is one cell's outcome within a pass.
type cellRun struct {
	r    *taglessdram.Result
	err  error
	wall time.Duration
}

// runCells runs every cell once with `workers` goroutines, in list
// order, and returns the outcomes by index. A non-nil after runs on the
// same goroutine after each cell.
func runCells(ctx context.Context, cells []cell, tr *tracer, parent int64, req string, after func(lane int)) []cellRun {
	out := make([]cellRun, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range next {
				sp := tr.begin(cells[i].id, "cell", fmt.Sprintf("%s/%d", req, i), parent, lane)
				t0 := time.Now()
				r, err := cells[i].run(ctx)
				out[i] = cellRun{r: r, err: err, wall: time.Since(t0)}
				var refs uint64
				if r != nil {
					refs = r.References
				}
				tr.end(sp, "refs", refs, "ok", err == nil)
				if after != nil {
					after(lane)
				}
			}
		}(w + 1)
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// timed is what a workload's timed phase measured.
type timed struct {
	segments []segment
	// warmMS and coldS are the latencies of the workload's warm and cold
	// operations: replays and cold passes of the whole grid for the grid
	// workloads, warm and cold requests for service-mix.
	warmMS, coldS []float64
	spans         []designSpan
	// phases are the server-side span durations by span name, from the
	// traced requests (service-mix only).
	phases        map[string][]time.Duration
	hitRatio      float64
	tracesEvicted int
}

// segment is a stretch of the timed phase: the references of the cold
// cells that completed and passed their checks in it, and its length.
type segment struct {
	refs   uint64
	secs   float64
	traced bool
}

// mrefsPerSec is the throughput over every segment of one tracing mode.
func (t *timed) mrefsPerSec(traced bool) float64 {
	var refs, secs float64
	for _, s := range t.segments {
		if s.traced == traced {
			refs += float64(s.refs)
			secs += s.secs
		}
	}
	if secs == 0 {
		return 0
	}
	return refs / secs / 1e6
}

// designSpan is one cold cell's host time and references, for the
// per-design step cost.
type designSpan struct {
	design taglessdram.Design
	wall   time.Duration
	refs   uint64
}

// runGrid is the grid workloads' timed phase: cold passes over every
// cell until the time is up. From the second pass on, each worker replays
// the grid warm after every cold cell it finishes, from the result cache
// the first pass filled, so the warm replays sample the whole phase while
// the other worker simulates. With a tracer, passes alternate untraced
// and traced (spans plus CPU profile), so the traced run also measures
// its own overhead. It also returns the first pass's outcomes.
func runGrid(ctx context.Context, cells []cell, ck *checker, seconds time.Duration, tr *tracer, prof *profiler, storeDir string) (*timed, []cellRun, error) {
	store, err := taglessdram.OpenResultCache(storeDir)
	if err != nil {
		return nil, nil, err
	}
	g := &timed{}
	var first []cellRun
	var warm *warmGrid
	begin := time.Now()
	minPasses := 1
	if tr != nil {
		minPasses = 2 // one of each mode
	}
	for pass := 0; pass < minPasses || time.Since(begin) < seconds; pass++ {
		traced := tr != nil && pass%2 == 1
		var ptr *tracer
		if traced {
			ptr = tr
			if err := prof.start(); err != nil {
				return nil, nil, err
			}
		}
		run := cells
		var after func(lane int)
		if pass == 0 {
			// The first pass also stores its results for the warm replays.
			run = make([]cell, len(cells))
			for i, c := range cells {
				run[i] = withStore(c, store)
			}
		} else {
			after = func(lane int) {
				for k := 0; k < warmPerCell; k++ {
					warm.replay(ctx, ptr, lane)
				}
			}
		}
		req := fmt.Sprintf("pass%d", pass)
		sp := ptr.begin(req, "pass", req, 0, 0)
		t0 := time.Now()
		outs := runCells(ctx, run, ptr, sp.id, req, after)
		wall := time.Since(t0)
		var refs uint64
		for i, o := range outs {
			ok := o.err == nil && ck.check(cells[i], o.r)
			ck.op(ok)
			if o.err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cells[i].id, o.err)
				continue
			}
			if ok {
				refs += o.r.References
				g.spans = append(g.spans, designSpan{cells[i].job.Design, o.wall, o.r.References})
			}
		}
		ptr.end(sp, "refs", refs)
		g.segments = append(g.segments, segment{refs, wall.Seconds(), traced})
		if traced {
			if err := prof.stop(); err != nil {
				return nil, nil, err
			}
		} else {
			g.coldS = append(g.coldS, wall.Seconds())
		}
		if pass == 0 {
			first = outs
			warm = newWarmGrid(cells, first, store, ck)
		}
	}
	g.warmMS = warm.lat
	st := store.Stats()
	if n := st.Hits + st.Misses; n > 0 {
		g.hitRatio = float64(st.Hits) / float64(n)
	}
	return g, first, nil
}

func withStore(c cell, store *taglessdram.ResultCache) cell {
	if c.cores == 0 {
		c.job.Options.ResultCache = store
	}
	return c
}

// warmGrid replays a grid warm: one Sweep of every cell the first pass
// stored, from the result cache, on a single worker. Every replayed
// result must match the simulated one.
type warmGrid struct {
	ck       *checker
	replayed []cell
	jobs     []taglessdram.Job

	mu  sync.Mutex
	lat []float64 // ms per replay
}

func newWarmGrid(cells []cell, first []cellRun, store *taglessdram.ResultCache, ck *checker) *warmGrid {
	w := &warmGrid{ck: ck}
	for i, c := range cells {
		if c.cores == 0 && first[i].err == nil {
			c = withStore(c, store)
			w.replayed = append(w.replayed, c)
			w.jobs = append(w.jobs, c.job)
		}
	}
	return w
}

func (w *warmGrid) replay(ctx context.Context, tr *tracer, lane int) {
	sp := tr.begin("warm", "warm", "", 0, lane)
	t0 := time.Now()
	rs, err := taglessdram.Sweep(ctx, w.jobs, 1)
	d := time.Since(t0)
	tr.end(sp, "jobs", len(w.jobs))
	ok := err == nil
	for i, c := range w.replayed {
		ok = ok && w.ck.matches(c, rs[i])
	}
	w.ck.op(ok)
	if ok {
		w.mu.Lock()
		w.lat = append(w.lat, ms(d))
		w.mu.Unlock()
	}
}
