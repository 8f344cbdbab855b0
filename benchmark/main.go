// Command benchmark is the repository's host-performance ledger: four named
// workloads, end-to-end metrics from untraced runs, per-layer metrics from a
// separate traced run, and a correctness gate on the simulated outputs.
//
//	go run ./benchmark                       # all four workloads, table + results JSON
//	go run ./benchmark -trace 1              # ... and the traced run of each
//	go run ./benchmark -workload fleet16 -seed 3 -seconds 15 -trace 0
//	go run ./benchmark -compare a.json b.json
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics at
// -trace 0, the per-layer metrics at -trace 1. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

const header = `apiary host-performance benchmark
  host time = what the simulator takes; sim_* = what the modelled hardware would take
  the model is unvalidated against hardware (the repository holds no reference results): no accuracy figure is given
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload in this process (default: all four, each in its own child process)")
		seed    = fs.Uint64("seed", 21, "workload seed; feeds only the generated scenario text and the mesh RNG")
		seconds = fs.Float64("seconds", 15, "how long the timed repeats of one workload go on")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics, CPU profile, Chrome trace")
		scale   = fs.Int("scale", 1, "divide the simulated length (tests use 100)")
		jsonOut = fs.String("json", "", "also write the full results record to this file")
		outDir  = fs.String("out", filepath.Join("benchmark", "out"), "directory for Chrome traces and results")
		compare = fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	if fs.NArg() != 0 || *scale < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}

	// The benchmark measures the defaults at a pinned width: min(nproc, 4).
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *name == "" {
		return runAll(*seed, *seconds, *trace == 1, *scale, *outDir, *jsonOut, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, scale: *scale, outDir: *outDir}
	measure := runEndToEnd
	if *trace == 1 {
		measure = runTraced
	}
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	printResult(stdout, res)
	if err := printDriverLine(stdout, res); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// metricOrder is the reporting order of a result's metrics.
func metricOrder(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints one workload's metrics by name with unit, the spread of
// each host-time median beside it, and the gate's verdict.
func printResult(w io.Writer, r *result) {
	fmt.Fprint(w, header)
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  GOMAXPROCS %d of %d CPUs  %d timed repeats (+1 warm-up discarded)\n",
		r.Workload, r.Seed, r.Traced, r.GOMAXPROCS, r.NumCPU, len(r.RepeatWallS))
	fmt.Fprintf(w, "sim_fingerprint %s  offered %d  ok %d  failed %d  unresolved %d  cycles %d\n",
		r.Fingerprint, r.Sim.Offered, r.Sim.OK, r.Sim.Failed, r.Sim.Unresolved, r.Sim.Cycles)
	for _, d := range metricOrder(r.Traced) {
		printMetric(w, "", d.Name, r.Metrics[d.Name])
	}
	if len(r.SpanTotals) > 0 {
		fmt.Fprintln(w, "spans (harness calls into each layer; self = total minus child spans):")
		for _, t := range r.SpanTotals {
			fmt.Fprintf(w, "  %-18s calls %6d  total %10.3f ms  self %10.3f ms\n",
				t.Name, t.Count, float64(t.Total.Microseconds())/1e3, float64(t.Self.Microseconds())/1e3)
		}
	}
	if r.Correct {
		fmt.Fprintln(w, "correctness gate: ok")
		return
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "correctness gate VIOLATION: %s\n", v)
	}
}

// printMetric prints one metric by name with its unit, the spread of a
// host-time median beside it, and for a tail the percentile it really is and
// the samples behind it.
func printMetric(w io.Writer, prefix, name string, v metricValue) {
	fmt.Fprintf(w, "  %s%-34s %16.6g %-9s", prefix, name, v.Value, v.Unit)
	if v.Spread != nil {
		fmt.Fprintf(w, " spread %.2f%%", 100**v.Spread)
	}
	if v.Pct != 0 {
		fmt.Fprintf(w, " p%g", v.Pct)
	}
	if v.N != 0 {
		fmt.Fprintf(w, " n=%d", v.N)
	}
	fmt.Fprintln(w)
}

// printDriverLine prints the one-line JSON object a driver reads last.
func printDriverLine(w io.Writer, r *result) error {
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted uint64                  `json:"attempted"`
		Failed    uint64                  `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetric{}}
	for _, d := range metricOrder(r.Traced) {
		line.Metrics[d.Name] = driverMetric{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// resultsFile is what a run over all workloads writes and -compare reads.
type resultsFile struct {
	Note      string             `json:"note"`
	EndToEnd  map[string]*result `json:"end_to_end"`          // by workload
	PerLayer  map[string]*result `json:"per_layer,omitempty"` // by workload, traced runs
	Workloads []string           `json:"workloads"`
}

// runAll runs every workload in its own re-exec'd child process, so peak RSS
// and allocation counts are per workload, then prints one row per workload
// for every end-to-end metric and writes the results file.
func runAll(seed uint64, seconds float64, traced bool, scale int, outDir, jsonOut string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if jsonOut == "" {
		jsonOut = filepath.Join(outDir, "results.json")
	}
	file := resultsFile{
		Note:     "host-time metrics are medians over repeats with interquartile-range/median spread; the model is unvalidated against hardware",
		EndToEnd: map[string]*result{}, PerLayer: map[string]*result{},
	}
	status := 0
	child := func(w workload, trace int) *result {
		tmp := filepath.Join(outDir, w.name+[]string{".end_to_end.json", ".per_layer.json"}[trace])
		cmd := exec.Command(exe,
			"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-scale", fmt.Sprint(scale), "-out", outDir, "-json", tmp)
		var listing bytes.Buffer
		cmd.Stdout, cmd.Stderr = &listing, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s (trace %d): %v\n", w.name, trace, err)
			status = 1
		}
		if trace == 1 {
			// The per-layer listing is the traced child's own; its last
			// line is the driver's JSON object, which the results file holds.
			text := strings.TrimRight(listing.String(), "\n")
			if i := strings.LastIndexByte(text, '\n'); i >= 0 {
				fmt.Fprintln(stdout, text[:i])
			}
		}
		res := new(result)
		if err := readJSON(tmp, res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s (trace %d): %v\n", w.name, trace, err)
			status = 1
			return nil
		}
		return res
	}
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, w.name)
		if res := child(w, 0); res != nil {
			file.EndToEnd[w.name] = res
		}
		if traced {
			if res := child(w, 1); res != nil {
				file.PerLayer[w.name] = res
			}
		}
	}
	printTable(stdout, &file)
	if err := writeJSON(jsonOut, &file); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "results written to %s\n", jsonOut)
	return status
}

// printTable prints every end-to-end metric, one row per workload.
func printTable(w io.Writer, f *resultsFile) {
	fmt.Fprint(w, header)
	for _, name := range f.Workloads {
		r := f.EndToEnd[name]
		if r == nil {
			fmt.Fprintf(w, "%-13s FAILED TO RUN\n", name)
			continue
		}
		verdict := "ok"
		if !r.Correct {
			verdict = fmt.Sprintf("VIOLATED %v", r.Violations)
		}
		fmt.Fprintf(w, "%-13s seed %d  GOMAXPROCS %d  repeats %d  sim_fingerprint %s  offered %d ok %d failed %d  gate %s\n",
			name, r.Seed, r.GOMAXPROCS, len(r.RepeatWallS), r.Fingerprint, r.Sim.Offered, r.Sim.OK, r.Sim.Failed+r.Sim.Unresolved, verdict)
		for _, d := range endToEnd {
			printMetric(w, name+" ", d.Name, r.Metrics[d.Name])
		}
	}
}
