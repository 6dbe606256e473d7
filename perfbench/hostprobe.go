package main

import (
	"crypto/sha256"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Host-speed normalisation.
//
// The benchmark shares a host whose speed drifts as neighbours load its
// caches and memory: on a 2-vCPU Xeon VM the same grid cells ran a third
// slower in one minute than in another, and the speed often moved by 10
// to 20% between the start and the end of one run. The grids' set-up
// (job lists and fingerprints, about half a millisecond) swung even more:
// its median over ten runs was 0.49ms in a fast spell and 0.92ms in a
// slow one. The untraced grid runs therefore report their set-up time
// and the throughput and latencies of their timed phase at a nominal host
// speed. Just before and just after the timed phase they time a fixed
// probe, code of the benchmark's own that shares nothing with the
// simulator, and divide those times by the probe's median slowdown
// against nominal (throughput is multiplied by it). The probe mixes the
// two kinds of work whose slowdowns tracked the simulator's on that VM:
// dependent loads through a ring larger than a core's L2, and SHA-256
// compute. Over ten seeds this cut the spread (interquartile range over
// median) of the miss-path grid's throughput from 12% to 4% and of its
// median warm replay from 28% to 11%, and of the hit-path grid's
// throughput from 10% to 9%. service-mix is left raw: its figures did
// not follow the probe (their spread grew from 12-17% to 15-21%), as
// HTTP, encoding and the two clients' contention weigh more there than
// memory speed. The raw values and the slowdown are printed on standard
// error.

const (
	probeRingLen    = 1 << 20 // 4MB of uint32 per worker: past a 2MB L2
	probeChaseSteps = 1_500_000
	probeHashBytes  = 1 << 20
	probeHashReps   = 32
	probeRounds     = 6 // per probe; a run probes twice

	// The probe halves' times per round on that VM in its fast spells;
	// they only set where a slowdown of 1 lies.
	nominalChase = 70 * time.Millisecond
	nominalHash  = 25 * time.Millisecond
)

// probeHost times probeRounds rounds of the probe, each half on
// `workers` goroutines at once like the workloads, and returns each
// round's slowdown: the geometric mean of the halves' times over their
// nominal times. It collects garbage before, so that the probe does not
// wait on the collector, and after, so that the probe's memory neither
// raises the workload's heap goal nor its peak RSS.
func probeHost() []float64 {
	collect()
	defer collect()
	rings := make([][]uint32, workers)
	for i := range rings {
		rings[i] = cyclicRing(probeRingLen, uint64(i))
	}
	buf := make([]byte, probeHashBytes)
	ends := make([]uint32, workers)
	var slow []float64
	for r := -1; r < probeRounds; r++ { // round -1 warms up
		chase := onWorkers(func(i int) { ends[i] = chaseRing(rings[i], probeChaseSteps) })
		hash := onWorkers(func(int) {
			for k := 0; k < probeHashReps; k++ {
				sha256.Sum256(buf)
			}
		})
		if r >= 0 {
			slow = append(slow, math.Sqrt(chase.Seconds()/nominalChase.Seconds()*hash.Seconds()/nominalHash.Seconds()))
		}
	}
	runtime.KeepAlive(ends)
	return slow
}

func collect() {
	runtime.GC()
	debug.FreeOSMemory()
}

// cyclicRing is a random single cycle through n slots (Sattolo's
// shuffle), so that following it visits every slot in an order the
// prefetchers cannot guess.
func cyclicRing(n int, seed uint64) []uint32 {
	ring := make([]uint32, n)
	for i := range ring {
		ring[i] = uint32(i)
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	for i := n - 1; i > 0; i-- {
		j := rng.IntN(i)
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring
}

func chaseRing(ring []uint32, steps int) uint32 {
	i := uint32(0)
	for k := 0; k < steps; k++ {
		i = ring[i]
	}
	return i
}

// onWorkers runs f(0..workers-1) at once and returns the wall time.
func onWorkers(f func(i int)) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
	return time.Since(t0)
}
