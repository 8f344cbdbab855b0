package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call from the harness into a layer. Spans nest: parent
// is the index of the span that was open when this one began, -1 at the top.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's origin
	Parent     int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanRecorder keeps spans in memory until the run ends. It is driven from
// the harness goroutine only (the layers' own goroutines are invisible from
// outside), so it needs no lock.
type spanRecorder struct {
	workload string
	origin   time.Time
	spans    []span
	open     int // innermost open span, -1 when none
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{workload: workload, origin: time.Now(), open: -1}
}

// begin opens a span under the currently open one and returns its index.
// begin and end do nothing on a nil recorder, so code both the traced and the
// untraced run go through needs no branch.
func (r *spanRecorder) begin(name string) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.origin), Parent: r.open})
	r.open = len(r.spans) - 1
	return r.open
}

// end closes span i (and reopens its parent).
func (r *spanRecorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = time.Since(r.origin)
	r.open = r.spans[i].Parent
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover. Children may overlap one another (they do not
// here, but a recorder fed from several goroutines would), so the covered
// part is the union of the children's intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanTotals is the per-name roll-up the summary table prints.
type spanTotals struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

func (r *spanRecorder) totals() []spanTotals {
	self := selfTimes(r.spans)
	byName := map[string]*spanTotals{}
	var order []string
	for i, s := range r.spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			byName[s.Name] = t
			order = append(order, s.Name)
		}
		t.Count++
		t.Total += s.dur()
		t.Self += self[i]
	}
	out := make([]spanTotals, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// durations lists the durations of every span called name, in call order.
func (r *spanRecorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// total is the summed duration of every span called name.
func (r *spanRecorder) total(name string) time.Duration {
	var t time.Duration
	for _, d := range r.durations(name) {
		t += d
	}
	return t
}

// writeChrome writes the spans as Chrome-trace "X" events (load the file in
// chrome://tracing or Perfetto). Self time rides along in args.
func (r *spanRecorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"` // microseconds
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(r.spans)
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Cat: r.workload, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"parent": s.Parent, "self_us": float64(self[i]) / 1e3},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
