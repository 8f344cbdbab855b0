package main

import (
	"path"
	"strings"
)

const internalPrefix = "apiary/internal/"

// packageLayer maps every apiary/internal package the benchmark links to the
// layer its CPU samples are charged to. A layer is a package name; the few
// packages without a per-layer metric of their own ride with the layer that
// calls them. TestLayerTableCoversLinkedPackages fails when a linked package
// is missing here, so a new package cannot fall silently into "other".
var packageLayer = map[string]string{
	"sim":      "sim",
	"noc":      "noc",
	"monitor":  "monitor",
	"cap":      "monitor", // the capability check the monitor makes per message
	"accel":    "accel",
	"apps":     "apps",
	"core":     "core",
	"memseg":   "core", // allocator and DRAM behind core's memory service
	"fault":    "core", // chaos plans core.NewSystem arms (none armed here)
	"manifest": "cluster",
	"msg":      "msg",
	"netstack": "netstack",
	"netsim":   "netsim",
	"fabric":   "fabric",
	"cluster":  "cluster",
	"load":     "load",
	"obs":      "obs",
	"trace":    "trace",
}

// Layers outside apiary/internal: the harness's own frames and everything
// with no apiary or harness frame on the stack (GC workers, the scheduler).
const (
	layerBench   = "bench"
	layerRuntime = "runtime"
	layerOther   = "other" // an apiary/internal package missing from packageLayer
)

// nocBuckets are the noc.*_share sub-buckets.
var nocBuckets = []string{"router", "ni", "commit", "express", "band"}

// splitSymbol splits a profile function name under apiary/internal into its
// package and the symbol within it: "apiary/internal/noc.(*Network).trySend"
// gives ("noc", "(*Network).trySend").
func splitSymbol(fn string) (pkg, sym string, ok bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", "", false
	}
	pkg, sym, ok = strings.Cut(rest, ".")
	return pkg, sym, ok
}

// nocBucket assigns a noc symbol to exactly one sub-bucket: the per-band
// ticker by receiver, the commit phase by name, the express bypass and the
// network interface by source file, and the router pipeline (router.go,
// state.go, flit.go, topology.go and the rest) otherwise.
func nocBucket(sym, file string) string {
	switch base := path.Base(file); {
	case strings.HasPrefix(sym, "(*bandTicker)."):
		return "band"
	case sym == "(*Network).Commit" || strings.HasPrefix(sym, "(*Network).Commit."):
		return "commit"
	case base == "express.go":
		return "express"
	case base == "ni.go":
		return "ni"
	default:
		return "router"
	}
}

// sampleLayer charges one stack sample to a layer: the innermost
// apiary/internal frame decides, so Go map iteration under
// netstack.Transport.Tick counts as netstack. nocSub is set for noc samples.
func sampleLayer(frames []frame) (layer, nocSub string) {
	harness := false
	for _, f := range frames {
		if pkg, sym, ok := splitSymbol(f.Func); ok {
			l, known := packageLayer[pkg]
			if !known {
				return layerOther, ""
			}
			if l == "noc" {
				return l, nocBucket(sym, f.File)
			}
			return l, ""
		}
		// Package main is "main." in the benchmark binary and carries its
		// import path in the test binary.
		if strings.HasPrefix(f.Func, "main.") || strings.HasPrefix(f.Func, "apiary/benchmark.") {
			harness = true
		}
	}
	if harness {
		return layerBench, ""
	}
	return layerRuntime, ""
}

// profileShares is a CPU profile bucketed by layer.
type profileShares struct {
	layer   map[string]float64 // percent of sampled CPU time per layer
	noc     map[string]float64 // percent per noc sub-bucket (sums to layer["noc"])
	totalNs int64              // sampled CPU nanoseconds
	samples int64              // profile samples behind the shares
	seen    map[string]string  // every apiary/internal symbol on any stack -> its file
}

// covered is the share of samples that landed in a named apiary layer.
func (p profileShares) covered() float64 {
	return 100 - p.layer[layerBench] - p.layer[layerRuntime] - p.layer[layerOther]
}

func hostShares(samples []stackSample) profileShares {
	p := profileShares{layer: map[string]float64{}, noc: map[string]float64{}, seen: map[string]string{}}
	for _, s := range samples {
		layer, sub := sampleLayer(s.Frames)
		p.layer[layer] += float64(s.Nanos)
		if sub != "" {
			p.noc[sub] += float64(s.Nanos)
		}
		p.totalNs += s.Nanos
		p.samples += s.Count
		for _, f := range s.Frames {
			if strings.HasPrefix(f.Func, internalPrefix) {
				p.seen[f.Func] = f.File
			}
		}
	}
	for _, m := range []map[string]float64{p.layer, p.noc} {
		for k, v := range m {
			m[k] = 100 * ratio(v, float64(p.totalNs))
		}
	}
	return p
}
