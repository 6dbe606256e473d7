package taglessdram

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"taglessdram/internal/resultcache"
	"taglessdram/internal/system"
)

// modelVersion stamps every result-cache key with the simulator's
// behavioral generation. Bump it whenever the golden fingerprints change
// (a new organization, an event-ordering change, a metric fix): old
// cache entries then stop matching and every cell re-simulates, so a
// stale cache can never replay results from a different model.
//
// It is a var, not a const, only so the invalidation tests can bump it;
// production code must treat it as a constant.
var modelVersion = 2

// ModelVersion reports the simulator's behavioral generation stamp —
// the canonical.go constant that prefixes every result-cache key. The
// sweep service exposes it on /v1/stats and /metrics so clients can
// tell when two servers' caches are comparable.
func ModelVersion() int { return modelVersion }

// Every exported Options field is classified as either semantic (it can
// change a run's Result, so it is hashed into the cache key) or
// non-semantic (execution mechanics and observers that never change the
// simulated metrics, so identical runs under different values still
// share a cache entry). TestOptionsFieldsClassified enforces that the
// two sets are exhaustive and disjoint, and that Canonical() really
// depends on every semantic field and on no non-semantic one — a new
// Options field fails the test until it is classified here, which is
// what prevents silent stale-hit bugs.
var semanticOptionFields = map[string]bool{
	"Shift":               true,
	"Warmup":              true,
	"Measure":             true,
	"Seed":                true,
	"CacheMB":             true,
	"Policy":              true,
	"NCAccessThreshold":   true,
	"SynchronousEviction": true,
	"CachedGIPT":          true,
	"SharedAliasTable":    true,
	"HotFilterThreshold":  true,
	"Superpages":          true,
	"Refresh":             true,
	"L2TLBEntries":        true,
	"Alpha":               true,
	"WalkModel":           true,
	"PWCHitCycles":        true,
	"TLBTopology":         true,
	"CtxSwitchRefs":       true,
	"CtxSwitchFlush":      true,
	"MSHRs":               true,
	"EpochRefs":           true, // epoch length shapes Result.Epochs
	"Sample":              true, // sampled runs measure different windows
	// The three checkpoint fields are semantic through one derived bit:
	// any of them switches the run to the quiesced Warmup/Measure phase
	// pair, whose results differ from a plain Run. Their values beyond
	// that (which file, which store) don't enter the key — and runs that
	// read or write checkpoint *files* bypass the cache entirely, since
	// a loaded file's bytes are outside the fingerprint.
	"CheckpointSave": true,
	"CheckpointLoad": true,
	"Checkpoints":    true,
}

var nonSemanticOptionFields = map[string]bool{
	"ExtraDesigns":    true, // shapes which grid cells exist, never a cell's result
	"Workers":         true, // jobs are isolated; parallel == serial bit-for-bit
	"Server":          true, // where a sweep runs; remote results are byte-identical
	"Progress":        true, // observer
	"OnSweepAccepted": true, // observer (remote sweep-ID callback)
	"EpochCapacity":   true, // ring bound; drops old epochs, never changes metrics
	"MetricsSink":     true, // observer
	"TraceEvents":     true, // observer (and trace-requesting runs bypass the cache)
	"TraceEventLimit": true, // trace window bound
	"ResultCache":     true, // the cache itself
}

// Canonical renders the semantic Options fields — exactly the fields in
// semanticOptionFields — as one deterministic line. It is the Options
// portion of a cache key's preimage. Warmup is normalized to its
// effective value (Run substitutes Measure for a zero Warmup), and the
// three checkpoint fields collapse into the derived Quiesced bit.
func (o Options) Canonical() string {
	warmup := o.Warmup
	if warmup == 0 {
		warmup = o.Measure
	}
	sample := "nil"
	if o.Sample != nil {
		sample = fmt.Sprintf("%+v", *o.Sample)
	}
	return fmt.Sprintf(
		"Shift=%d Warmup=%d Measure=%d Seed=%d CacheMB=%d Policy=%d "+
			"NCAccessThreshold=%d SynchronousEviction=%t CachedGIPT=%t "+
			"SharedAliasTable=%t HotFilterThreshold=%d Superpages=%t "+
			"Refresh=%t L2TLBEntries=%d Alpha=%d "+
			"WalkModel=%q PWCHitCycles=%d TLBTopology=%q "+
			"CtxSwitchRefs=%d CtxSwitchFlush=%t MSHRs=%d "+
			"EpochRefs=%d Sample={%s} Quiesced=%t",
		o.Shift, warmup, o.Measure, o.Seed, o.CacheMB, o.Policy,
		o.NCAccessThreshold, o.SynchronousEviction, o.CachedGIPT,
		o.SharedAliasTable, o.HotFilterThreshold, o.Superpages,
		o.Refresh, o.L2TLBEntries, o.Alpha,
		o.WalkModel, o.PWCHitCycles, o.TLBTopology,
		o.CtxSwitchRefs, o.CtxSwitchFlush, o.MSHRs,
		o.EpochRefs, sample, o.quiesced())
}

// projectFor normalizes the option facets a design never consumes, so
// editing a tagless-only knob (victim policy, NC threshold, alias table,
// hot filter, superpages, alpha) leaves every other organization's cache
// keys untouched — re-running a sweep after such an edit re-simulates
// only the tagless cells. Sound because every consumer of these knobs
// (they all resolve into cfg.Tagless) is gated on the tagless
// organization: org/tagless.go reads them at construction, and the
// machine-level readers all check m.ctrl != nil or Design == Tagless
// first.
func (o Options) projectFor(design Design) Options {
	if design != Tagless {
		o.Policy = 0
		o.NCAccessThreshold = 0
		o.SynchronousEviction = false
		o.CachedGIPT = false
		o.SharedAliasTable = false
		o.HotFilterThreshold = 0
		o.Superpages = false
		o.Alpha = 0
	}
	// Walk-model-aware projection: PWCHitCycles is only consumed by the
	// walk-cache-bearing models (pwc, nested), so under the fixed model
	// its edits must not invalidate cache entries. Likewise the flush
	// policy only matters when context switching is on at all.
	if o.WalkModel == "" || o.WalkModel == "fixed" {
		o.PWCHitCycles = 0
	}
	if o.CtxSwitchRefs == 0 {
		o.CtxSwitchFlush = false
	}
	return o
}

// quiesced reports whether the run uses the checkpointable Warmup/Measure
// phase pair instead of the plain Run path. The two paths produce
// different (each internally deterministic) results, so the bit is part
// of the semantic identity.
func (o Options) quiesced() bool {
	return o.CheckpointSave != "" || o.CheckpointLoad != "" || o.Checkpoints != nil
}

// cacheable reports whether a run's Result may be served from or stored
// into the result cache. Runs that load or save checkpoint files depend
// on (or must produce) external file state the fingerprint cannot see,
// and runs that request a kernel-event trace need the simulation to
// actually execute; all of them bypass the cache.
func (o Options) cacheable() bool {
	return o.CheckpointSave == "" && o.CheckpointLoad == "" && o.TraceEvents == nil
}

// traceDigest fingerprints the resolved workload: its identity, seed,
// threading model and every per-core profile parameter. Synthetic traces
// are generated deterministically from exactly this state, so two equal
// digests mean byte-identical reference streams — and editing a profile
// in internal/trace invalidates every cached run that used it.
func traceDigest(w system.Workload) (string, bool) {
	if len(w.Sources) > 0 {
		// Recorded sources replay external files; their bytes are not
		// captured by the profile parameters, so such workloads are not
		// fingerprintable (the facade never builds them).
		return "", false
	}
	h := sha256.New()
	fmt.Fprintf(h, "name=%q seed=%d multithreaded=%t cores=%d\n",
		w.Name, w.Seed, w.MultiThreaded, len(w.PerCore))
	for i, p := range w.PerCore {
		fmt.Fprintf(h, "core%d=%+v\n", i, p)
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// preimageFor builds the full canonical encoding of a run's semantic
// identity: format and model versions, the design, the workload and its
// trace digest, the semantic Options, and the fully resolved machine
// configuration. SystemConfig is a pure value struct (the classification
// test enforces that recursively), so its %+v rendering is
// deterministic. The preimage is stored alongside each cache entry for
// auditability; its SHA-256 is the cache key.
func preimageFor(design Design, name string, w system.Workload, o Options) (string, error) {
	td, ok := traceDigest(w)
	if !ok {
		return "", fmt.Errorf("taglessdram: workload %s is not fingerprintable", name)
	}
	return preimageWith(design, name, td, o), nil
}

// preimageWith is preimageFor given the workload's trace digest.
func preimageWith(design Design, name, td string, o Options) string {
	// Project away knobs this design never reads — both in the canonical
	// options line and, because configFor maps them into cfg.Tagless, in
	// the rendered config — so their edits invalidate only the cells that
	// can feel them.
	o = o.projectFor(design)
	cfg := configFor(design, o)
	return fmt.Sprintf(
		"taglessdram result-cache preimage v1\nmodel=%d\ndesign=%d(%s)\nworkload=%q\ntrace=%s\noptions{%s}\nconfig=%+v\n",
		modelVersion, int(design), design, name, td,
		o.Canonical(), *cfg)
}

// preimage is preimageFor on a named Job, with the trace digest of its
// workload taken from the digest memo.
func (j Job) preimage() (string, error) {
	if err := j.Options.Validate(); err != nil {
		return "", err
	}
	td, err := workloadDigest(j.Workload, j.Options)
	if err != nil {
		return "", err
	}
	return preimageWith(j.Design, j.Workload, td, j.Options), nil
}

// digestKey is everything workloadFor reads from a named workload's
// options.
type digestKey struct {
	name  string
	shift uint
	seed  uint64
}

// digestMemoSize bounds the trace-digest memo. The memo is process-wide,
// and a long-running sweep service sees a new seed on many cold
// requests, so an unbounded memo would grow for the process's lifetime;
// the oldest entry is dropped first.
const digestMemoSize = 256

var digestMemo = struct {
	sync.Mutex
	m    map[digestKey]string
	ring [digestMemoSize]digestKey // insertion order, for eviction
	next int
}{m: make(map[digestKey]string, digestMemoSize)}

// workloadDigest returns traceDigest(workloadFor(name, o)), memoised by
// (name, Shift, Seed): building the workload and rendering its profiles
// otherwise dominates the cost of fingerprinting a job.
func workloadDigest(name string, o Options) (string, error) {
	k := digestKey{name: name, shift: o.Shift, seed: o.Seed}
	digestMemo.Lock()
	td, ok := digestMemo.m[k]
	digestMemo.Unlock()
	if ok {
		return td, nil
	}
	w, err := workloadFor(name, o)
	if err != nil {
		return "", err
	}
	if td, ok = traceDigest(w); !ok {
		return "", fmt.Errorf("taglessdram: workload %s is not fingerprintable", name)
	}
	digestMemo.Lock()
	if _, dup := digestMemo.m[k]; !dup {
		if len(digestMemo.m) == digestMemoSize {
			delete(digestMemo.m, digestMemo.ring[digestMemo.next])
		}
		digestMemo.m[k] = td
		digestMemo.ring[digestMemo.next] = k
		digestMemo.next = (digestMemo.next + 1) % digestMemoSize
	}
	digestMemo.Unlock()
	return td, nil
}

// fingerprint returns the job's cache key together with the preimage it
// hashes.
func (j Job) fingerprint() (resultcache.Key, string, error) {
	pre, err := j.preimage()
	if err != nil {
		return resultcache.Key{}, "", err
	}
	return resultcache.KeyOf(pre), pre, nil
}

// Fingerprint returns the hex content address identifying this job's
// Result in a result cache: the SHA-256 of the job's canonical semantic
// identity (model version, design, workload + trace digest, semantic
// options, fully resolved configuration). Two jobs share a fingerprint
// exactly when they are guaranteed to produce bit-identical Results.
func (j Job) Fingerprint() (string, error) {
	key, _, err := j.fingerprint()
	if err != nil {
		return "", err
	}
	return key.String(), nil
}
