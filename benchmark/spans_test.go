package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name  string
		spans []span
		want  []time.Duration
	}{
		{
			name: "nested",
			spans: []span{
				{Name: "a", Start: 0, End: 100 * ms, Parent: -1},
				{Name: "b", Start: 10 * ms, End: 40 * ms, Parent: 0},
				{Name: "c", Start: 20 * ms, End: 30 * ms, Parent: 1},
			},
			want: []time.Duration{70 * ms, 20 * ms, 10 * ms},
		},
		{
			name: "siblings",
			spans: []span{
				{Name: "a", Start: 0, End: 100 * ms, Parent: -1},
				{Name: "b", Start: 10 * ms, End: 20 * ms, Parent: 0},
				{Name: "b", Start: 30 * ms, End: 60 * ms, Parent: 0},
			},
			want: []time.Duration{60 * ms, 10 * ms, 30 * ms},
		},
		{
			name: "zero-length child and zero-length parent",
			spans: []span{
				{Name: "a", Start: 0, End: 50 * ms, Parent: -1},
				{Name: "b", Start: 25 * ms, End: 25 * ms, Parent: 0},
				{Name: "z", Start: 60 * ms, End: 60 * ms, Parent: -1},
				{Name: "y", Start: 60 * ms, End: 60 * ms, Parent: 2},
			},
			want: []time.Duration{50 * ms, 0, 0, 0},
		},
		{
			name: "overlapping children count once, clipped to the parent",
			spans: []span{
				{Name: "a", Start: 10 * ms, End: 100 * ms, Parent: -1},
				{Name: "b", Start: 20 * ms, End: 60 * ms, Parent: 0},
				{Name: "c", Start: 40 * ms, End: 120 * ms, Parent: 0},
			},
			want: []time.Duration{10 * ms, 40 * ms, 80 * ms},
		},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: span %d (%s) self = %v, want %v", c.name, i, c.spans[i].Name, got[i], c.want[i])
			}
		}
	}
}

func TestSpanRecorderNestsAndTotals(t *testing.T) {
	r := newSpanRecorder("w")
	a := r.begin("a")
	b := r.begin("b")
	r.end(b)
	b2 := r.begin("b")
	c := r.begin("c")
	r.end(c)
	r.end(b2)
	r.end(a)
	top := r.begin("a")
	r.end(top)

	wantParent := []int{-1, 0, 0, 2, -1}
	for i, s := range r.spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d (%s) parent = %d, want %d", i, s.Name, s.Parent, wantParent[i])
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	totals := r.totals()
	if len(totals) != 3 || totals[0].Name != "a" || totals[0].Count != 2 || totals[1].Count != 2 || totals[2].Count != 1 {
		t.Errorf("totals = %+v", totals)
	}
	if got := len(r.durations("b")); got != 2 {
		t.Errorf("durations(b) has %d entries, want 2", got)
	}

	var buf bytes.Buffer
	if err := r.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(r.spans) || doc.TraceEvents[0]["ph"] != "X" || doc.TraceEvents[0]["cat"] != "w" {
		t.Errorf("chrome trace events = %v", doc.TraceEvents)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *spanRecorder
	r.end(r.begin("x")) // must not panic
}
