package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	var bj benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json and the code must name the same workloads and metrics, with
// the same units and directions: a metric added to one and not the other is
// a metric a driver never sees or never gets.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	var mine []string
	for _, w := range workloads {
		mine = append(mine, w.name)
		if i := slices.Index(names, w.name); i < 0 || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %s: BENCHMARK.json and workloads.go disagree on its why", w.name)
		}
	}
	if !slices.Equal(names, mine) {
		t.Errorf("workloads: BENCHMARK.json has %v, the code has %v", names, mine)
	}

	type row struct{ unit, better string }
	check := func(kind string, defs []metricDef, listed map[string]row) {
		seen := map[string]bool{}
		for _, d := range defs {
			if seen[d.Name] {
				t.Errorf("%s metric %s defined twice", kind, d.Name)
			}
			seen[d.Name] = true
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
				t.Errorf("%s metric %+v: bad name, unit or direction", kind, d)
			}
			if got, ok := listed[d.Name]; !ok {
				t.Errorf("%s metric %s is not in BENCHMARK.json", kind, d.Name)
			} else if got != (row{d.Unit, d.Better}) {
				t.Errorf("%s metric %s: BENCHMARK.json says %+v, the code %s/%s", kind, d.Name, got, d.Unit, d.Better)
			}
		}
		for name := range listed {
			if !seen[name] {
				t.Errorf("%s metric %s is in BENCHMARK.json and not in the code", kind, name)
			}
		}
	}
	e2e, layer := map[string]row{}, map[string]row{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = row{m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		layer[m.Name] = row{m.Unit, m.Better}
	}
	check("end-to-end", endToEnd, e2e)
	check("per-layer", perLayer, layer)
	if _, ok := e2e["setup_s"]; !ok {
		t.Error("setup_s missing")
	}
}

// driverLine is the contract's last line of standard output.
type driverLine struct {
	Correct   *bool   `json:"correct"`
	Attempted *uint64 `json:"attempted"`
	Failed    *uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// All four workloads at 1/200 scale (1/100 takes 7 s under -race here), one
// repeat, untraced and traced: the plumbing end to end (build, run, gate,
// profile, spans, JSON), and the printed metric set against BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	want := [2]map[string]string{{}, {}} // [trace] name -> unit
	for _, m := range bj.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		want[1][m.Name] = m.Unit
	}
	out := t.TempDir()
	for _, w := range bj.Workloads {
		for trace := 0; trace <= 1; trace++ {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "7", "--seconds", "0.01",
				"--trace", string(rune('0' + trace)), "-scale", "200", "-out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s\n%s", w.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var keys map[string]json.RawMessage
			var line driverLine
			last := []byte(lines[len(lines)-1])
			if err := json.Unmarshal(last, &keys); err != nil {
				t.Fatalf("%s trace %d: last line is not JSON: %v\n%s", w.Name, trace, err, last)
			}
			if err := json.Unmarshal(last, &line); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || line.Correct == nil || line.Attempted == nil || line.Failed == nil || line.Metrics == nil {
				t.Fatalf("%s trace %d: last line must have exactly correct, attempted, failed, metrics: %s", w.Name, trace, last)
			}
			if !*line.Correct || *line.Attempted < 1 || *line.Failed != 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.Name, trace, *line.Correct, *line.Attempted, *line.Failed)
			}
			for name, unit := range want[trace] {
				m, ok := line.Metrics[name]
				if !ok || m.Value == nil {
					t.Errorf("%s trace %d: metric %s not printed", w.Name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace %d: metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, name, m.Unit, unit)
				}
				if !strings.Contains(stdout.String(), "  "+name+" ") {
					t.Errorf("%s trace %d: metric %s missing from the listing", w.Name, trace, name)
				}
			}
			for name := range line.Metrics {
				if _, ok := want[trace][name]; !ok {
					t.Errorf("%s trace %d: printed metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
			if !strings.Contains(stdout.String(), "unvalidated against hardware") ||
				!strings.Contains(stdout.String(), "sim_fingerprint") {
				t.Errorf("%s trace %d: header or fingerprint missing", w.Name, trace)
			}
			if trace == 0 {
				for name, m := range line.Metrics {
					if *m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g; must never be 0", w.Name, name, *m.Value)
					}
				}
			} else if _, err := os.Stat(filepath.Join(out, w.Name+".trace.json")); err != nil {
				t.Errorf("%s: no Chrome trace written: %v", w.Name, err)
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"-scale", "0"}, {"stray"}, {"-compare", "one.json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
