package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taglessdram"
)

// service is a sweep service on a loopback HTTP server over a fresh
// result cache, with its warm set already simulated into the cache.
type service struct {
	dir  string
	ts   *httptest.Server
	warm []cell
	// warmRuns are the warm set's in-process results, the reference the
	// remote replays must match.
	warmRuns []cellRun
}

// startService opens a result cache in dir, serves a SweepServer with
// `workers` simulation workers over it, and simulates the warm set into
// the cache in-process.
func startService(ctx context.Context, dir string, warm []cell, ck *checker) (*service, error) {
	store, err := taglessdram.OpenResultCache(dir)
	if err != nil {
		return nil, err
	}
	srv, err := taglessdram.NewSweepServer(store, workers, 0)
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, ts: httptest.NewServer(srv), warm: warm}
	run := make([]cell, len(warm))
	for i, c := range warm {
		run[i] = withStore(c, store)
	}
	s.warmRuns = runCells(ctx, run, nil, 0, "", nil)
	for i, o := range s.warmRuns {
		if o.err != nil {
			s.close()
			return nil, fmt.Errorf("warm set %s: %w", warm[i].id, o.err)
		}
		if !ck.check(warm[i], o.r) {
			s.close()
			return nil, fmt.Errorf("warm set %s: check failed", warm[i].id)
		}
	}
	return s, nil
}

func (s *service) close() {
	s.ts.Close()
	os.RemoveAll(s.dir)
}

// coldReq is one cold request's outcome, verified after the timed phase.
type coldReq struct {
	c    cell
	r    *taglessdram.Result
	err  error
	lat  time.Duration
	done time.Duration // completion, from the start of the timed phase
}

// runService is the service-mix timed phase: two closed-loop clients
// against the service for the given time. Client W sends warm replays of
// 1–14 random warm-set cells back to back; client C sends one cold
// sampled cell at a time, cycling over the service rotation with a fresh
// seed per request. With a tracer, the time is cut into four segments
// that alternate untraced and traced; traced requests record client spans
// joined to the server's spans for the same sweep ID.
func runService(ctx context.Context, s *service, seed uint64, ck *checker, seconds time.Duration, tr *tracer, prof *profiler) (*timed, error) {
	url := s.ts.URL
	before, err := taglessdram.RemoteStats(ctx, url)
	if err != nil {
		return nil, err
	}
	sr := &timed{phases: make(map[string][]time.Duration)}
	var phaseMu sync.Mutex
	addPhases := func(p map[string][]time.Duration, evicted bool) {
		phaseMu.Lock()
		defer phaseMu.Unlock()
		for k, v := range p {
			sr.phases[k] = append(sr.phases[k], v...)
		}
		if evicted {
			sr.tracesEvicted++
		}
	}

	segments := 1
	if tr != nil {
		segments = 4
	}
	segLen := seconds / time.Duration(segments)
	var tracing atomic.Bool
	begin := time.Now()
	deadline := begin.Add(seconds)

	// send submits one remote sweep, recording its client span and, when
	// traced, the server's spans for it.
	send := func(name string, lane int, jobs []taglessdram.Job) ([]*taglessdram.Result, time.Duration, error) {
		traced := tracing.Load()
		var t *tracer
		if traced {
			t = tr
		}
		var id string
		o := taglessdram.Options{Workers: workers, OnSweepAccepted: func(a taglessdram.SweepAccepted) { id = a.SweepID }}
		sp := t.begin(name, "request", "", 0, lane)
		t0 := time.Now()
		rs, err := taglessdram.RemoteSweep(ctx, url, jobs, o)
		d := time.Since(t0)
		sp.req = id
		t.end(sp, "jobs", len(jobs), "ok", err == nil)
		if traced && err == nil {
			raw, terr := taglessdram.RemoteTrace(ctx, url, id)
			switch {
			case terr != nil && strings.Contains(terr.Error(), "HTTP 404"):
				// The server keeps the last 64 sweeps' traces; a cold
				// request outlasts that many warm ones now and then.
				addPhases(nil, true)
				terr = nil
			case terr == nil:
				var p map[string][]time.Duration
				if p, terr = t.joinServer(sp, id, raw); terr == nil {
					addPhases(p, false)
				}
			}
			if terr != nil {
				ck.problem("trace of sweep %s: %v", id, terr)
			}
		}
		return rs, d, err
	}

	var wg sync.WaitGroup
	var warmCells uint64
	wg.Add(2)
	go func() { // client W
		defer wg.Done()
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		for time.Now().Before(deadline) {
			pick := rng.Perm(len(s.warm))[:1+rng.IntN(len(s.warm))]
			jobs := make([]taglessdram.Job, len(pick))
			for j, k := range pick {
				jobs[j] = s.warm[k].job
			}
			rs, d, err := send(fmt.Sprintf("warm×%d", len(jobs)), 1, jobs)
			warmCells += uint64(len(jobs))
			ok := err == nil
			for j, k := range pick {
				if ok && !ck.matches(s.warm[k], rs[j]) {
					ok = false
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: warm request: %v\n", err)
			}
			ck.op(ok)
			if ok {
				sr.warmMS = append(sr.warmMS, float64(d.Nanoseconds())/1e6)
			}
		}
	}()
	var colds []coldReq
	go func() { // client C
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			c := coldCell(seed, i)
			rs, d, err := send(c.id, 2, []taglessdram.Job{c.job})
			cr := coldReq{c: c, err: err, lat: d, done: time.Since(begin)}
			if err == nil {
				cr.r = rs[0]
			}
			colds = append(colds, cr)
		}
	}()
	// Segment clock: odd segments are traced and profiled.
	for seg := 0; seg < segments; seg++ {
		on := tr != nil && seg%2 == 1
		if on {
			if err := prof.start(); err != nil {
				ck.problem("cpu profile: %v", err)
			}
		}
		tracing.Store(on)
		time.Sleep(time.Until(begin.Add(time.Duration(seg+1) * segLen)))
		if on {
			if err := prof.stop(); err != nil {
				ck.problem("cpu profile: %v", err)
			}
		}
	}
	tracing.Store(false)
	wg.Wait()
	wall := time.Since(begin)

	after, err := taglessdram.RemoteStats(ctx, url)
	if err != nil {
		return nil, err
	}
	// Every cold cell is one miss; every warm cell is one hit. Any other
	// miss means a warm request re-simulated.
	if dm, dh := after.Misses-before.Misses, after.Hits-before.Hits; dm != uint64(len(colds)) || dh != warmCells {
		ck.problem("/v1/stats delta misses=%d hits=%d, want misses=%d (cold cells) hits=%d (warm cells)", dm, dh, len(colds), warmCells)
	}
	if n := after.Hits + after.Misses - before.Hits - before.Misses; n > 0 {
		sr.hitRatio = float64(after.Hits-before.Hits) / float64(n)
	}
	if tr != nil {
		if err := crossCheckMetrics(ctx, url, after); err != nil {
			ck.problem("/metrics: %v", err)
		}
	}

	// Verify every cold result against the same cell simulated in-process.
	var ran []cell
	for _, cr := range colds {
		if cr.err == nil {
			ran = append(ran, cr.c)
		}
	}
	inproc := runCells(ctx, ran, nil, 0, "", nil)
	segRefs := make([]uint64, segments)
	var coldRefs uint64
	// The cold latency median counts whole rotations only: the rotation's
	// cells differ several-fold in cost, and a run that stopped part-way
	// through one would shift the median by where it stopped.
	whole := len(colds) / serviceCells() * serviceCells()
	if whole == 0 {
		whole = len(colds)
	}
	k := 0
	for i, cr := range colds {
		ok := cr.err == nil
		if ok {
			o := inproc[k]
			k++
			ok = o.err == nil && ck.check(cr.c, o.r) && ck.matches(cr.c, cr.r)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: cold request %s: %v\n", cr.c.id, cr.err)
		}
		ck.op(ok)
		if !ok {
			continue
		}
		coldRefs += cr.r.References
		if i < whole {
			sr.coldS = append(sr.coldS, cr.lat.Seconds())
		}
		if seg := int(cr.done / segLen); seg < segments {
			segRefs[seg] += cr.r.References
		}
		sr.spans = append(sr.spans, designSpan{cr.c.job.Design, cr.lat, cr.r.References})
	}
	if tr == nil {
		sr.segments = []segment{{coldRefs, wall.Seconds(), false}}
		return sr, nil
	}
	for seg, refs := range segRefs {
		sr.segments = append(sr.segments, segment{refs, segLen.Seconds(), seg%2 == 1})
	}
	return sr, nil
}

// crossCheckMetrics scrapes /metrics once and checks its result-cache
// counters against a /v1/stats snapshot taken with no traffic in between.
func crossCheckMetrics(ctx context.Context, url string, st taglessdram.ServerStats) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	want := map[string]uint64{
		"sweepd_resultcache_hits_total":   st.Hits,
		"sweepd_resultcache_misses_total": st.Misses,
		"sweepd_resultcache_stored_total": st.Stored,
	}
	found := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		w, ok := want[f[0]]
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil || uint64(v) != w {
			return fmt.Errorf("%s = %s, /v1/stats says %d", f[0], f[1], w)
		}
		found++
	}
	if found != len(want) {
		return fmt.Errorf("found %d of %d result-cache counters", found, len(want))
	}
	return sc.Err()
}
