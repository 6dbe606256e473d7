package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the traced run's spans in memory and writes them out as
// Chrome trace_event JSON at the end. A nil *tracer records nothing, so
// the untraced path calls the same code.
type tracer struct {
	t0   time.Time
	last atomic.Int64 // the last span ID handed out

	mu    sync.Mutex
	spans []span
}

// span is one complete event: its name, start, end, parent, and the
// request it belongs to. Server-side spans fetched from the sweep service
// run under pid 2 and share the client span's request ID.
type span struct {
	id, parent int64
	req        string
	name, cat  string
	start, end time.Duration
	pid, tid   int
	args       map[string]any
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span on lane tid under parent (0 = a root span); end
// closes it. A nil tracer returns a span with ID 0.
func (t *tracer) begin(name, cat, req string, parent int64, tid int) span {
	if t == nil {
		return span{}
	}
	return span{
		id: t.last.Add(1), parent: parent, req: req, name: name, cat: cat,
		start: time.Since(t.t0), pid: 1, tid: tid,
	}
}

// end closes the span, attaching args (alternating keys and values).
func (t *tracer) end(s span, args ...any) {
	if t == nil || s.id == 0 {
		return
	}
	s.end = time.Since(t.t0)
	if len(args) > 0 {
		s.args = make(map[string]any, len(args)/2)
		for i := 0; i+1 < len(args); i += 2 {
			s.args[args[i].(string)] = args[i+1]
		}
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records an already-timed span, such as a server-side span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	s.id = t.last.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// count is the number of recorded spans.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write saves every closed span as Chrome trace_event JSON; the span and
// parent IDs and the request ID travel in each event's args.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "req": s.req}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: s.pid, TID: s.tid, Args: args,
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// serverTrace is the part of the sweep service's /v1/trace document the
// benchmark joins to its client spans.
type serverTrace struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
		TS   uint64 `json:"ts"`
		Dur  uint64 `json:"dur"`
		TID  int    `json:"tid"`
	} `json:"traceEvents"`
}

// joinServer adds a sweep's server-side spans under the client span that
// sent it. Server timestamps are offsets from the request's arrival,
// which follows the client span's start. It returns the duration of every
// span by name, for the per-phase medians.
func (t *tracer) joinServer(client span, req string, raw []byte) (map[string][]time.Duration, error) {
	var st serverTrace
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, err
	}
	phases := make(map[string][]time.Duration)
	for _, ev := range st.TraceEvents {
		dur := time.Duration(ev.Dur) * time.Microsecond
		phases[ev.Name] = append(phases[ev.Name], dur)
		start := client.start + time.Duration(ev.TS)*time.Microsecond
		t.add(span{
			parent: client.id, req: req, name: ev.Name, cat: "server." + ev.Cat,
			start: start, end: start + dur, pid: 2, tid: ev.TID,
		})
	}
	return phases, nil
}
