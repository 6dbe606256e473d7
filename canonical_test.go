package taglessdram

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"taglessdram/internal/config"
)

// TestOptionsFieldsClassified is the stale-hit firewall: every exported
// Options field must be classified as semantic (hashed into the cache
// key) or non-semantic (ignored), in exactly one of the two sets. Adding
// an Options field without classifying it fails this test, so a new
// result-affecting knob can never silently alias two different runs onto
// one cache entry.
func TestOptionsFieldsClassified(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		seen[f.Name] = true
		sem, non := semanticOptionFields[f.Name], nonSemanticOptionFields[f.Name]
		switch {
		case sem && non:
			t.Errorf("Options.%s classified both semantic and non-semantic", f.Name)
		case !sem && !non:
			t.Errorf("Options.%s unclassified: add it to semanticOptionFields (it can change a Result) or nonSemanticOptionFields (it never can) in canonical.go", f.Name)
		}
	}
	for name := range semanticOptionFields {
		if !seen[name] {
			t.Errorf("semanticOptionFields lists %q, which is not an exported Options field", name)
		}
	}
	for name := range nonSemanticOptionFields {
		if !seen[name] {
			t.Errorf("nonSemanticOptionFields lists %q, which is not an exported Options field", name)
		}
	}
}

// TestCanonicalCoversExactlySemanticFields mutates every exported
// Options field and asserts Canonical() changes exactly for the
// semantic ones — i.e. the classification tables and the canonical
// encoder cannot drift apart.
func TestCanonicalCoversExactlySemanticFields(t *testing.T) {
	base := DefaultOptions()
	baseCanon := base.Canonical()
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		o := base
		fv := reflect.ValueOf(&o).Elem().Field(i)
		if !mutateField(fv) {
			t.Errorf("Options.%s: no mutation rule for kind %v — extend mutateField", f.Name, fv.Kind())
			continue
		}
		got := o.Canonical()
		switch {
		case semanticOptionFields[f.Name] && got == baseCanon:
			t.Errorf("Options.%s is classified semantic but Canonical() ignores it", f.Name)
		case nonSemanticOptionFields[f.Name] && got != baseCanon:
			t.Errorf("Options.%s is classified non-semantic but changes Canonical():\n got: %s\nbase: %s", f.Name, got, baseCanon)
		}
	}
}

// mutateField sets v to a value different from its current one, covering
// every kind Options uses. Returns false for kinds it cannot mutate.
func mutateField(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "mutated")
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func(args []reflect.Value) []reflect.Value {
			out := make([]reflect.Value, 0, v.Type().NumOut())
			for i := 0; i < v.Type().NumOut(); i++ {
				out = append(out, reflect.Zero(v.Type().Out(i)))
			}
			return out
		}))
	case reflect.Interface:
		if !reflect.TypeOf(&bytes.Buffer{}).Implements(v.Type()) {
			return false
		}
		v.Set(reflect.ValueOf(&bytes.Buffer{}))
	default:
		return false
	}
	return true
}

// TestConfigFieldsCanonical walks the resolved SystemConfig recursively
// and asserts every field is a plain value kind. The cache preimage
// embeds the whole config via %+v, which is deterministic exactly when
// the struct holds no pointers, slices, maps, funcs, channels or
// interfaces — a future reference-typed config field fails here until
// the preimage learns to canonicalize it.
func TestConfigFieldsCanonical(t *testing.T) {
	var check func(typ reflect.Type, path string)
	check = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Bool,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.String:
			return
		case reflect.Array:
			check(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(f.Type, path+"."+f.Name)
			}
		default:
			t.Errorf("%s has kind %v: not a plain value, so %%+v of SystemConfig is no longer a sound canonical encoding — teach Job.preimage to canonicalize it", path, typ.Kind())
		}
	}
	check(reflect.TypeOf(config.SystemConfig{}), "SystemConfig")

	if k := reflect.TypeOf(Design(0)).Kind(); k != reflect.Int {
		t.Errorf("Design kind = %v, want plain int (the preimage renders it numerically)", k)
	}
}

// TestPreimageContents pins the auditable structure of the canonical
// preimage: versions, design, workload, trace digest, options and the
// resolved config all present; the quiesced bit tracking the checkpoint
// execution path.
func TestPreimageContents(t *testing.T) {
	o := DefaultOptions()
	j := Job{Design: Tagless, Workload: "sphinx3", Options: o}
	pre, err := j.preimage()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"taglessdram result-cache preimage v1",
		"model=2",
		"design=3(cTLB)",
		`workload="sphinx3"`,
		"trace=",
		"Quiesced=false",
		"config={CPU:",
	} {
		if !strings.Contains(pre, want) {
			t.Errorf("preimage missing %q:\n%s", want, pre)
		}
	}

	j.Options.Checkpoints = NewCheckpointStore()
	qpre, err := j.preimage()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qpre, "Quiesced=true") {
		t.Errorf("Checkpoints store should set Quiesced=true:\n%s", qpre)
	}
	if qpre == pre {
		t.Errorf("quiesced and plain runs must not share a preimage")
	}

	if (Options{CheckpointSave: "x"}).cacheable() {
		t.Errorf("CheckpointSave runs must bypass the cache")
	}
	if (Options{CheckpointLoad: "x"}).cacheable() {
		t.Errorf("CheckpointLoad runs must bypass the cache")
	}
	if (Options{TraceEvents: &bytes.Buffer{}}).cacheable() {
		t.Errorf("trace-requesting runs must bypass the cache")
	}
	if !(Options{Checkpoints: NewCheckpointStore()}).cacheable() {
		t.Errorf("in-memory checkpoint stores are deterministic and must stay cacheable")
	}
}

// TestFingerprintMemoMatchesDirect pins the trace-digest memo to the
// direct computation: for every named workload at two seeds and two
// shifts, the memoised preimage (cold and then from the memo) equals
// preimageFor over a freshly built workload. It then feeds more distinct
// seeds than the memo holds and checks the memo stays within its bound.
func TestFingerprintMemoMatchesDirect(t *testing.T) {
	var names []string
	names = append(names, SPECWorkloads()...)
	names = append(names, MixWorkloads()...)
	names = append(names, PARSECWorkloads()...)
	for _, name := range names {
		for _, seed := range []uint64{1, 99} {
			for _, shift := range []uint{5, 6} {
				o := DefaultOptions()
				o.Seed, o.Shift = seed, shift
				w, err := workloadFor(name, o)
				if err != nil {
					t.Fatal(err)
				}
				want, err := preimageFor(Tagless, name, w, o)
				if err != nil {
					t.Fatal(err)
				}
				j := Job{Design: Tagless, Workload: name, Options: o}
				for pass := 0; pass < 2; pass++ {
					got, err := j.preimage()
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s seed=%d shift=%d pass %d: memoised preimage differs:\n%s\nwant:\n%s",
							name, seed, shift, pass, got, want)
					}
				}
			}
		}
	}
	if _, err := (Job{Design: Tagless, Workload: "no-such-workload", Options: DefaultOptions()}).preimage(); err == nil {
		t.Fatal("unknown workload fingerprinted")
	}

	o := DefaultOptions()
	for seed := uint64(1000); seed < 1000+2*digestMemoSize; seed++ {
		o.Seed = seed
		if _, err := workloadDigest("mcf", o); err != nil {
			t.Fatal(err)
		}
	}
	digestMemo.Lock()
	n := len(digestMemo.m)
	digestMemo.Unlock()
	if n > digestMemoSize {
		t.Fatalf("digest memo holds %d entries, bound %d", n, digestMemoSize)
	}
}
