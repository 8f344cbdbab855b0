package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkJSON is the part of the root BENCHMARK.json the tools here read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one workload x metric row.
const (
	verdictIdentical  = "identical"
	verdictDifferent  = "DIFFERENT" // an exact (simulated) metric moved
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved" // recorded spread wider than the bound: the runs cannot tell
)

// judge compares one metric of runs a (before) and b (after). worse is the
// change in the metric's bad direction as a share of a.
func judge(def metricDef, bound float64, a, b metricValue) (verdict string, worse float64) {
	worse = ratio(b.Value-a.Value, a.Value)
	if def.Better == "higher" {
		worse = -worse
	}
	if def.Exact {
		if a.Value == b.Value {
			return verdictIdentical, 0
		}
		return verdictDifferent, worse
	}
	noise := 0.0
	for _, v := range []metricValue{a, b} {
		if v.Spread != nil {
			noise = max(noise, *v.Spread)
		}
	}
	switch {
	case noise > bound:
		return verdictUnresolved, worse
	case worse > bound:
		return verdictRegressed, worse
	case worse < -bound:
		return verdictImproved, worse
	}
	return verdictUnchanged, worse
}

// compareFiles prints one row per workload x end-to-end metric for two
// results files of runs over all workloads, judged by the bounds BENCHMARK.json fixes. It
// returns 1 if any row regressed or any simulated statistic differs.
func compareFiles(pathA, pathB, benchPath string, stdout, stderr io.Writer) int {
	var a, b resultsFile
	var bj benchmarkJSON
	for path, v := range map[string]any{pathA: &a, pathB: &b, benchPath: &bj} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	bounds := map[string]float64{}
	for _, m := range bj.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	status := 0
	fmt.Fprintf(stdout, "%-13s %-18s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	for _, name := range a.Workloads {
		ra, rb := a.EndToEnd[name], b.EndToEnd[name]
		if ra == nil || rb == nil {
			fmt.Fprintf(stdout, "%-13s missing from one file\n", name)
			status = 1
			continue
		}
		fp := verdictIdentical
		if ra.Fingerprint != rb.Fingerprint || ra.Seed != rb.Seed {
			fp, status = verdictDifferent, 1
		}
		fmt.Fprintf(stdout, "%-13s %-18s %14s %14s %8s %8s %7s  %s\n",
			name, "sim_fingerprint", ra.Fingerprint[:12], rb.Fingerprint[:12], "", "", "exact", fp)
		for _, def := range endToEnd {
			va, vb := ra.Metrics[def.Name], rb.Metrics[def.Name]
			verdict, worse := judge(def, bounds[def.Name], va, vb)
			if verdict == verdictRegressed || verdict == verdictDifferent {
				status = 1
			}
			noise, bound := "", "exact"
			if !def.Exact {
				bound = fmt.Sprintf("%.1f%%", 100*bounds[def.Name])
				if va.Spread != nil && vb.Spread != nil {
					noise = fmt.Sprintf("%.1f%%", 100*max(*va.Spread, *vb.Spread))
				}
			}
			fmt.Fprintf(stdout, "%-13s %-18s %14.6g %14.6g %+7.1f%% %8s %7s  %s\n",
				name, def.Name, va.Value, vb.Value, 100*worse, noise, bound, verdict)
		}
	}
	return status
}
