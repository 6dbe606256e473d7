package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuLayers are the packages whose share of sampled CPU the traced run
// reports, keyed by the metric prefix. Simulator packages are matched by
// their path under internal/.
var cpuLayers = []string{
	"trace", "system", "cache", "cpu", "tlb", "vm", "org", "core",
	"dramcache", "dram", "sim", "resultcache", "telemetry", "net_http",
	"encoding",
}

// profiler records a CPU profile over the traced segments of a run, one
// file per segment, and the Go runtime's GC CPU over the same segments.
type profiler struct {
	dir   string
	files []string
	f     *os.File // the open profile, nil between segments

	gcStart, totalStart float64
	gc, total           float64
}

func (p *profiler) start() error {
	f, err := os.Create(filepath.Join(p.dir, fmt.Sprintf("cpu-%03d.pprof", len(p.files))))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.files = append(p.files, f.Name())
	p.f = f
	p.gcStart, p.totalStart = cpuSeconds()
	return nil
}

func (p *profiler) stop() error {
	if p.f == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := p.f.Close()
	p.f = nil
	gc, total := cpuSeconds()
	p.gc += gc - p.gcStart
	p.total += total - p.totalStart
	return err
}

// cpuSeconds reads the runtime's GC and total CPU-time estimates.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// gcFrac is the GC's share of the process's CPU over the profiled
// segments.
func (p *profiler) gcFrac() float64 {
	if p.total <= 0 {
		return 0
	}
	return p.gc / p.total
}

// layerFractions aggregates the recorded profiles by package through the
// toolchain's own `go tool pprof -top`, and returns each layer's share of
// the sampled flat CPU time.
func (p *profiler) layerFractions() (map[string]float64, error) {
	goBin := os.Getenv("PERFBENCH_GO")
	if goBin == "" {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-unit=ns"}, p.files...)
	cmd := exec.Command(goBin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	flat := make(map[string]float64)
	var total float64
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			continue
		}
		total += ns
		flat[layerOf(f[5])] += ns
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples")
	}
	fr := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		fr[l] = flat[l] / total
	}
	return fr, nil
}

// layerOf maps a profiled function to its layer: the package under
// taglessdram/internal/, net_http, encoding, or the package path.
func layerOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "taglessdram/internal/"):
		return strings.TrimPrefix(pkg, "taglessdram/internal/")
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case strings.HasPrefix(pkg, "encoding/"):
		return "encoding"
	}
	return pkg
}
