package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"sync"

	"taglessdram"
)

// committedDigests holds the digest of every recorded cell at seed 1, one
// "<workload> <cell> <digest>" line per cell. Regenerate it, only when a
// change is meant to alter simulated behaviour, with
//
//	for w in hit-grid miss-grid service-mix; do
//		bash perfbench/run.sh --workload $w --seed 1 --record-digests
//	done > perfbench/digests_seed1.txt
//
//go:embed digests_seed1.txt
var committedDigests string

// committedSeed is the seed the committed digests were recorded at.
const committedSeed = 1

// digest hashes the simulated fields the root package's golden
// fingerprints cover, plus References.
func digest(r *taglessdram.Result) string {
	s := fmt.Sprintf("cyc=%d in=%d ipc=%v pc=%v l3=%d,%d,%v,%v tlb=%d,%d,%v nc=%d e=%v,%v,%v,%v edp=%v row=%v,%v b=%d,%d ctrl=%+v km=%v kc=%v sram=%v refs=%d",
		r.Cycles, r.Instructions, r.IPC, r.PerCoreIPC,
		r.L3Accesses, r.L3Hits, r.L3HitRate, r.AvgL3Latency,
		r.TLBLookups, r.TLBMisses, r.TLBMissRate, r.NCAccesses,
		r.Energy.CoreJ, r.Energy.InPkgJ, r.Energy.OffPkgJ, r.Energy.TagJ,
		r.EDPJs, r.InPkgRowHitRate, r.OffPkgRowHitRate, r.InPkgBytes, r.OffPkgBytes,
		r.Ctrl, r.MissKindMean, r.MissKindCount, r.SRAMHitRate, r.References)
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}

func parseDigests(text, workload string) map[string]string {
	m := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == workload {
			m[f[1]] = f[2]
		}
	}
	return m
}

// Hit-path ceilings, per cell, in events per 1k measured references. Set
// from measurement at seed 1 with headroom: the highest hit-grid cells
// (sphinx3) read 68.5 L3 accesses and 1.23 TLB misses, while every
// miss-grid cell reads 11.6 to 36 TLB misses.
const (
	hitMaxL3PerKref  = 100.0
	hitMaxTLBPerKref = 2.5
)

// fastRefsMin is how many times more references a sampled service cell
// must fast-forward than it simulates accurately.
const fastRefsMin = 8

// checker verifies every result the benchmark sees and counts operations.
// Correctness problems (digest mismatches, attribution residue, layer
// violations) make the run incorrect; errors only count as failed
// operations.
type checker struct {
	workload  string
	committed map[string]string

	mu        sync.Mutex
	seen      map[string]string
	attempted int
	failed    int
	problems  []string
}

func newChecker(workload string, seed uint64) *checker {
	c := &checker{workload: workload, seen: make(map[string]string)}
	if seed == committedSeed {
		c.committed = parseDigests(committedDigests, workload)
	}
	return c
}

// op records one operation's outcome: ok or failed.
func (c *checker) op(ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
	}
}

func (c *checker) problem(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// check verifies one cell's result against the committed digest, the
// digest this run saw first for the cell, zero attribution residue and
// the workload's layer-separation rule. It reports whether the result is
// correct; the caller counts the operation.
func (c *checker) check(cl cell, r *taglessdram.Result) bool {
	d := digest(r)
	ok := true
	if err := taglessdram.CheckLatencyAttribution(r); err != nil {
		c.problem("%s: %v", cl.id, err)
		ok = false
	}
	c.mu.Lock()
	prev, seen := c.seen[cl.id]
	if !seen {
		c.seen[cl.id] = d
	}
	want, committed := c.committed[cl.id]
	c.mu.Unlock()
	if seen && prev != d {
		c.problem("%s: digest %s differs from this run's earlier %s", cl.id, d, prev)
		ok = false
	}
	if committed && want != d {
		c.problem("%s: digest %s, committed %s", cl.id, d, want)
		ok = false
	}
	if v := c.layerViolation(cl, r); v != "" {
		c.problem("%s: layer separation: %s", cl.id, v)
		ok = false
	}
	return ok
}

// matches verifies a result that must equal an earlier one for the same
// cell (a cache replay or a remote result).
func (c *checker) matches(cl cell, r *taglessdram.Result) bool {
	if r == nil {
		c.problem("%s: no result", cl.id)
		return false
	}
	d := digest(r)
	c.mu.Lock()
	want, ok := c.seen[cl.id]
	c.mu.Unlock()
	if !ok {
		c.problem("%s: replayed before it was simulated", cl.id)
		return false
	}
	if d != want {
		c.problem("%s: replayed digest %s, simulated %s", cl.id, d, want)
		return false
	}
	return true
}

// layerViolation reports how a result fails to stress the layers its
// workload claims to, or "".
func (c *checker) layerViolation(cl cell, r *taglessdram.Result) string {
	switch c.workload {
	case "hit-grid":
		if r.TLBLookups == 0 {
			return "no measured references"
		}
		l3 := 1000 * float64(r.L3Accesses) / float64(r.TLBLookups)
		tlb := 1000 * float64(r.TLBMisses) / float64(r.TLBLookups)
		if l3 > hitMaxL3PerKref {
			return fmt.Sprintf("%.2f L3 accesses per 1k refs, ceiling %.1f", l3, hitMaxL3PerKref)
		}
		if tlb > hitMaxTLBPerKref {
			return fmt.Sprintf("%.3f TLB misses per 1k refs, ceiling %.2f", tlb, hitMaxTLBPerKref)
		}
	case "miss-grid":
		if cl.job.Design == taglessdram.Tagless {
			s := r.Ctrl
			if s.Walks == 0 || s.ColdFills == 0 || s.Evictions == 0 {
				return fmt.Sprintf("cTLB cell with walks=%d cold fills=%d evictions=%d", s.Walks, s.ColdFills, s.Evictions)
			}
		}
	case "service-mix":
		s := r.Sampled
		if s == nil {
			return "sampled cell without sampling info"
		}
		if s.FastRefs < fastRefsMin*s.MeasuredRefs {
			return fmt.Sprintf("fast-forwarded %d refs against %d accurate, want at least %d×", s.FastRefs, s.MeasuredRefs, fastRefsMin)
		}
	}
	return ""
}

// writeDigests prints every digest seen, sorted by cell, so that the
// output of two commits can be diffed.
func (c *checker) writeDigests(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range sortedKeys(c.seen) {
		fmt.Fprintf(w, "%s %s %s\n", c.workload, id, c.seen[id])
	}
}
