package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a simulator layer, recorded from outside
// the program. Start and End are offsets from the start of the run.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Phase  string        `json:"phase"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Diff marks a call made only so another layer can be measured by
	// difference (an emit-only kernel run, an LRU replay); coverage
	// leaves it out.
	Diff bool `json:"diff,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// Phases of a traced run.
const (
	phaseSetup  = "setup"  // the workload's set-up, once
	phasePass   = "pass"   // one serial pass of the workload
	phaseLayers = "layers" // per-layer calls on the workload's streams
)

// tracer keeps the spans of one traced run in memory. Runs are serial, so
// the innermost open span is the parent of the next one. A nil *tracer
// only times calls, which is what untraced runs use.
type tracer struct {
	t0    time.Time
	phase string
	cur   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn as a span named name and returns its duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	return t.record(name, false, fn)
}

// diff runs fn as a differencing-only span.
func (t *tracer) diff(name string, fn func()) {
	t.record(name, true, fn)
}

func (t *tracer) record(name string, diff bool, fn func()) time.Duration {
	start := time.Now()
	if t == nil {
		fn()
		return time.Since(start)
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.cur, Name: name, Phase: t.phase, Start: start.Sub(t.t0), Diff: diff})
	parent := t.cur
	t.cur = id
	fn()
	end := time.Now()
	t.cur = parent
	t.spans[id-1].End = end.Sub(t.t0)
	return end.Sub(start)
}

// child records a span that ended now after running for d, as a child of
// the open span: the sweep engine reports cells only once they finish.
func (t *tracer) child(name string, d time.Duration) {
	if t == nil {
		return
	}
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.cur, Name: name, Phase: t.phase, Start: end - d, End: end})
}

// sum totals the spans named name in phase (any phase when empty).
func (t *tracer) sum(phase, name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && (phase == "" || s.Phase == phase) {
			d += s.dur()
		}
	}
	return d
}

// durations lists the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// coverage is the share of the run's wall time, less differencing-only
// calls, that top-level spans account for.
func (t *tracer) coverage(wall time.Duration) float64 {
	var covered, diff time.Duration
	for _, s := range t.spans {
		if s.Parent != 0 {
			continue
		}
		if s.Diff {
			diff += s.dur()
		} else {
			covered += s.dur()
		}
	}
	return covered.Seconds() / (wall - diff).Seconds()
}

// writeJSON writes the spans as JSON lines.
func (t *tracer) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarize prints, per phase and span name, the call count, total time
// and self time (total less the time child spans cover).
func (t *tracer) summarize(w io.Writer) {
	type agg struct {
		n           int
		total, self time.Duration
	}
	childTime := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.dur()
		}
	}
	byKey := make(map[string]*agg)
	var keys []string
	for _, s := range t.spans {
		k := s.Phase + " " + s.Name
		a := byKey[k]
		if a == nil {
			a = new(agg)
			byKey[k] = a
			keys = append(keys, k)
		}
		a.n++
		a.total += s.dur()
		a.self += s.dur() - childTime[s.ID]
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-44s %7s %12s %12s\n", "phase span", "calls", "total", "self")
	for _, k := range keys {
		a := byKey[k]
		fmt.Fprintf(w, "%-44s %7d %12s %12s\n", k, a.n, a.total.Round(time.Microsecond), a.self.Round(time.Microsecond))
	}
}
