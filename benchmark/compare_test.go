package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	higher := metricDef{Name: "sim_cycles_per_s", Better: "higher"}
	lower := metricDef{Name: "cpu_ns_per_cycle", Better: "lower"}
	exact := metricDef{Name: "sim_p99_cycles", Better: "lower", Exact: true}
	for _, c := range []struct {
		name  string
		def   metricDef
		bound float64
		a, b  metricValue
		want  string
	}{
		{"within bound", higher, 0.07, metricValue{Value: 100, Spread: f(0.01)}, metricValue{Value: 96, Spread: f(0.02)}, verdictUnchanged},
		{"slower beyond bound", higher, 0.07, metricValue{Value: 100, Spread: f(0.01)}, metricValue{Value: 90, Spread: f(0.02)}, verdictRegressed},
		{"faster beyond bound", higher, 0.07, metricValue{Value: 100, Spread: f(0.01)}, metricValue{Value: 110, Spread: f(0.02)}, verdictImproved},
		{"lower is better: more is worse", lower, 0.05, metricValue{Value: 200, Spread: f(0.01)}, metricValue{Value: 220, Spread: f(0.01)}, verdictRegressed},
		{"lower is better: less is better", lower, 0.05, metricValue{Value: 200, Spread: f(0.01)}, metricValue{Value: 180, Spread: f(0.01)}, verdictImproved},
		{"spread wider than bound is unresolved, not unchanged", higher, 0.07, metricValue{Value: 100, Spread: f(0.09)}, metricValue{Value: 100, Spread: f(0.01)}, verdictUnresolved},
		{"spread wider than bound hides a regression too", higher, 0.07, metricValue{Value: 100, Spread: f(0.01)}, metricValue{Value: 80, Spread: f(0.2)}, verdictUnresolved},
		{"no recorded spread (peak RSS) is judged on the values", lower, 0.10, metricValue{Value: 40}, metricValue{Value: 43}, verdictUnchanged},
		{"exact equal", exact, 0.05, metricValue{Value: 425}, metricValue{Value: 425}, verdictIdentical},
		{"exact moved inside the bound still differs", exact, 0.05, metricValue{Value: 425}, metricValue{Value: 426}, verdictDifferent},
	} {
		if got, _ := judge(c.def, c.bound, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	f := func(v float64) *float64 { return &v }
	mk := func(cps, p99 float64, fp string) *resultsFile {
		r := &result{Workload: "board-knee", Seed: 21, Correct: true, Fingerprint: fp, Metrics: map[string]metricValue{}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metricValue{Value: 10, Unit: d.Unit, Spread: f(0.01)}
		}
		r.Metrics["sim_cycles_per_s"] = metricValue{Value: cps, Spread: f(0.01)}
		r.Metrics["sim_p99_cycles"] = metricValue{Value: p99}
		return &resultsFile{Workloads: []string{"board-knee"}, EndToEnd: map[string]*result{"board-knee": r}}
	}
	write := func(name string, rf *resultsFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	doc := `{"end_to_end": [`
	for i, d := range endToEnd {
		if i > 0 {
			doc += ","
		}
		doc += `{"name":"` + d.Name + `","unit":"` + d.Unit + `","better":"` + d.Better + `","bound":0.07}`
	}
	if err := os.WriteFile(bench, []byte(doc+"]}"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("a.json", mk(5e6, 425, "00000000deadbeef"))

	var out, errb bytes.Buffer
	if code := compareFiles(base, write("same.json", mk(5.1e6, 425, "00000000deadbeef")), bench, &out, &errb); code != 0 {
		t.Errorf("equal runs: exit %d\n%s%s", code, out.String(), errb.String())
	}
	if n := strings.Count(out.String(), "\n"); n != 2+len(endToEnd) {
		t.Errorf("want a header, a fingerprint row and one row per metric, got %d lines:\n%s", n, out.String())
	}
	out.Reset()
	if code := compareFiles(base, write("slow.json", mk(4e6, 425, "00000000deadbeef")), bench, &out, &errb); code != 1 ||
		!strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("20%% slower: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(base, write("moved.json", mk(5e6, 430, "00000000feedface")), bench, &out, &errb); code != 1 ||
		strings.Count(out.String(), verdictDifferent) != 2 {
		t.Errorf("simulated statistics moved: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(base, filepath.Join(dir, "missing.json"), bench, &out, &errb); code != 2 {
		t.Errorf("missing file: exit %d", code)
	}
}
