package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"apiary/internal/obs"
)

// runConfig is one invocation on one workload.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64 // how long the timed repeats go on for
	scale   int     // divides the simulated length; 1 outside tests
	outDir  string  // where the traced run writes its Chrome trace
}

// Every host-time metric is the median over timed repeats, each on a freshly
// built system doing identical simulated work. minRepeats holds even when one
// repeat outlasts -seconds; minSetupBuilds throw-away builds feed setup_s.
const (
	minRepeats     = 3
	minSetupBuilds = 10
	maxSetupBuilds = 400
	setupBudget    = time.Second
)

// quick reports a reduced-scale run (the smoke test): one repeat, two builds
// and no warm-up check the plumbing, which is all such a run is for.
func (c runConfig) quick() bool { return c.scale > 1 }

// sample is what one repeat measured. The timed region is instance.run only:
// build, warm-up, forced GCs and profile start/stop all sit outside it.
type sample struct {
	wall, cpu  time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	liveHeap   uint64 // Go heap still reachable after the run and a forced GC
	sim        simStats
	counts     map[string]float64
	profile    []byte          // gzipped CPU profile of the timed region (traced only)
	flight     []*obs.Recorder // the system's flight recorders (traced only)
}

// metricValue is one reported number. Spread is the interquartile range over
// the median of the repeats behind a host-time median; Pct and N say which
// percentile a tail metric really is and over how many samples.
type metricValue struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Spread *float64 `json:"spread,omitempty"`
	Pct    float64  `json:"pct,omitempty"`
	N      int      `json:"n,omitempty"`
}

// result is one invocation's full record: what -json writes and -compare
// reads. The driver's last stdout line is a projection of it.
type result struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Traced      bool                   `json:"traced"`
	GOMAXPROCS  int                    `json:"gomaxprocs"`
	NumCPU      int                    `json:"num_cpu"`
	RepeatWallS []float64              `json:"repeat_wall_s"` // every timed repeat, in order
	Correct     bool                   `json:"correct"`
	Violations  []string               `json:"violations,omitempty"`
	Attempted   uint64                 `json:"attempted"`
	Failed      uint64                 `json:"failed"`
	Fingerprint string                 `json:"sim_fingerprint"`
	Sim         simStats               `json:"sim"`
	Metrics     map[string]metricValue `json:"metrics"`
	SpanTotals  []spanTotals           `json:"spans,omitempty"`
}

// cpuTime is the process's user+system CPU time over all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// measureRepeat builds a fresh system and times its run. With rec the run is
// the traced variant: flight recorder on, CPU profile on, a span per call
// into the system.
func measureRepeat(cfg runConfig, rec *spanRecorder) (sample, error) {
	traced := rec != nil
	runtime.GC()
	inst, err := cfg.w.build(cfg.seed, cfg.scale, traced)
	if err != nil {
		return sample{}, err
	}
	defer inst.close()
	inst.warm()
	runtime.GC()

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return sample{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	top := rec.begin("run")
	inst.run(rec)
	rec.end(top)
	s := sample{wall: time.Since(t0), cpu: cpuTime() - c0}
	runtime.ReadMemStats(&m1)
	if traced {
		pprof.StopCPUProfile()
		s.profile = prof.Bytes()
		s.flight = inst.recorders()
	}
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	s.liveHeap = m1.HeapAlloc // inst is still alive here
	s.sim = inst.sim(rec)
	s.counts = inst.counts()
	return s, nil
}

// measureSetup builds the system over and over and returns each build's
// seconds: scenario text to runnable system, nothing simulated.
func measureSetup(cfg runConfig) ([]float64, error) {
	least, most := minSetupBuilds, maxSetupBuilds
	if cfg.quick() {
		least, most = 2, 2
	}
	var secs []float64
	var total time.Duration
	for n := 0; (n < least || total < setupBudget) && n < most; n++ {
		runtime.GC()
		t0 := time.Now()
		inst, err := cfg.w.build(cfg.seed, cfg.scale, false)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		inst.close()
		secs = append(secs, d.Seconds())
		total += d
	}
	return secs, nil
}

// gate is the correctness check: every repeat gave the same simulated
// statistics and counts, every request was accounted for after the drain,
// and the workload's own check (the fleet's worker-count determinism) holds.
func gate(cfg runConfig, samples []sample) []string {
	var bad []string
	first := samples[0]
	for i, s := range samples[1:] {
		if s.sim != first.sim {
			bad = append(bad, fmt.Sprintf("repeat %d: simulated statistics differ from repeat 0: %+v vs %+v", i+1, s.sim, first.sim))
		}
		if !reflect.DeepEqual(s.counts, first.counts) {
			bad = append(bad, fmt.Sprintf("repeat %d: work counts differ from repeat 0", i+1))
		}
	}
	if first.sim.Unresolved != 0 {
		bad = append(bad, fmt.Sprintf("conservation: %d of %d offered requests neither completed, failed nor (on the mesh) in flight",
			first.sim.Unresolved, first.sim.Offered))
	}
	if first.sim.OK == 0 {
		bad = append(bad, "no request completed")
	}
	if cfg.w.check != nil {
		if err := cfg.w.check(cfg.seed, cfg.scale); err != nil {
			bad = append(bad, err.Error())
		}
	}
	return bad
}

func newResult(cfg runConfig, traced bool, samples []sample, violations []string) *result {
	r := &result{
		Workload: cfg.w.name, Seed: cfg.seed, Traced: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Correct: len(violations) == 0, Violations: violations,
		Fingerprint: fmt.Sprintf("%016x", samples[0].sim.Fingerprint),
		Sim:         samples[0].sim,
		Metrics:     map[string]metricValue{},
	}
	for _, s := range samples {
		r.Attempted += s.sim.Offered
		r.Failed += s.sim.Failed + s.sim.Unresolved
		r.RepeatWallS = append(r.RepeatWallS, s.wall.Seconds())
	}
	return r
}

// hostMedian files the median of per-repeat values with its spread.
func (r *result) hostMedian(name string, vs []float64) {
	sp := spread(vs)
	r.Metrics[name] = metricValue{Value: median(vs), Spread: &sp, N: len(vs)}
}

// fillUnits makes every metric of defs present with its unit (zero where the
// workload does not run the layer).
func (r *result) fillUnits(defs []metricDef) {
	for _, d := range defs {
		v := r.Metrics[d.Name]
		v.Unit = d.Unit
		r.Metrics[d.Name] = v
	}
}

func liveHeapMiB(s sample) float64 { return float64(s.liveHeap) / (1 << 20) }

func perRepeat(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// timedRepeats runs one discarded warm-up repeat (the first repeat in a
// process is slow), then repeats until the timed regions add up to
// cfg.seconds. every, when set, runs after each untraced repeat and returns
// how much more wall clock to charge against the budget.
func timedRepeats(cfg runConfig, every func() (time.Duration, error)) ([]sample, error) {
	least := minRepeats
	if cfg.quick() {
		least = 1
	} else if _, err := measureRepeat(cfg, nil); err != nil {
		return nil, err
	}
	var samples []sample
	var spent time.Duration
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for len(samples) < least || spent < budget {
		s, err := measureRepeat(cfg, nil)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
		spent += s.wall
		if every != nil {
			d, err := every()
			if err != nil {
				return nil, err
			}
			spent += d
		}
	}
	return samples, nil
}

// runEndToEnd is the untraced run: the end-to-end metrics.
func runEndToEnd(cfg runConfig) (*result, error) {
	samples, err := timedRepeats(cfg, nil)
	if err != nil {
		return nil, err
	}
	// Read the high-water mark now: the throw-away builds and the gate's
	// extra fleets below are the harness's garbage, not the workload's.
	peakRSS := peakRSSMiB()
	setup, err := measureSetup(cfg)
	if err != nil {
		return nil, err
	}
	r := newResult(cfg, false, samples, gate(cfg, samples))
	sim := samples[0].sim
	r.hostMedian("setup_s", setup)
	r.hostMedian("sim_cycles_per_s", perRepeat(samples, func(s sample) float64 {
		return float64(s.sim.Cycles) / s.wall.Seconds()
	}))
	r.hostMedian("requests_per_s", perRepeat(samples, func(s sample) float64 {
		return float64(s.sim.OK) / s.wall.Seconds()
	}))
	r.hostMedian("cpu_ns_per_cycle", perRepeat(samples, func(s sample) float64 {
		return float64(s.cpu.Nanoseconds()) / float64(s.sim.Cycles)
	}))
	r.Metrics["peak_rss_mb"] = metricValue{Value: peakRSS}
	r.hostMedian("live_heap_mb", perRepeat(samples, liveHeapMiB))
	r.Metrics["sim_goodput_rpmc"] = metricValue{Value: sim.GoodputRpMc}
	r.Metrics["sim_p50_cycles"] = metricValue{Value: sim.P50, Pct: 50, N: sim.Samples}
	r.Metrics["sim_p99_cycles"] = metricValue{Value: sim.P99, Pct: sim.TailPct, N: sim.Samples}
	r.fillUnits(endToEnd)
	return r, nil
}

// flightWaits folds the flight recorders' retained spans (the last 4096 per
// board, 1 in 64 sampled) into the per-stage waits, and times the export.
func flightWaits(r *result, rec *spanRecorder, recs []*obs.Recorder) error {
	var entries []obs.Entry
	var total uint64
	for _, fr := range recs {
		entries = append(entries, fr.Entries()...)
		total += fr.Total()
	}
	var niq, vc, sw []float64
	for _, e := range entries {
		b := obs.SpanBreakdown(e.Span)
		niq = append(niq, float64(b.NIQueue))
		vc = append(vc, float64(b.VCWait))
		sw = append(sw, float64(b.SwitchWait))
	}
	for name, vs := range map[string][]float64{
		"noc.ni_queue_p99_cycles": niq, "noc.vc_wait_p99_cycles": vc, "noc.switch_wait_p99_cycles": sw,
	} {
		_, tail, pct := tailOf(vs)
		r.Metrics[name] = metricValue{Value: tail, Pct: pct, N: len(vs)}
	}
	r.Metrics["obs.spans_recorded"] = metricValue{Value: float64(total)}
	s := rec.begin("obs.export")
	err := obs.ExportChromeSpans(io.Discard, entries, 250)
	rec.end(s)
	if err != nil {
		return fmt.Errorf("obs export: %w", err)
	}
	return nil
}

// runTraced is the traced run: the per-layer metrics. Untraced and traced
// repeats alternate so both see the same machine weather; end-to-end metrics
// never come from here.
func runTraced(cfg runConfig) (*result, error) {
	rec := newSpanRecorder(cfg.w.name)
	if cfg.w.probe != nil {
		ps := rec.begin("setup.probe")
		err := cfg.w.probe(cfg.seed, cfg.scale, rec)
		rec.end(ps)
		if err != nil {
			return nil, err
		}
	}
	rs := rec.begin("rigs")
	rigs, err := runRigs(cfg.scale)
	rec.end(rs)
	if err != nil {
		return nil, err
	}

	var traced []sample
	untraced, err := timedRepeats(cfg, func() (time.Duration, error) {
		s, err := measureRepeat(cfg, rec)
		if err == nil {
			traced = append(traced, s)
		}
		return s.wall, err
	})
	if err != nil {
		return nil, err
	}

	// The gate covers traced repeats too: tracing must not move the model.
	r := newResult(cfg, true, untraced, gate(cfg, append(append([]sample(nil), untraced...), traced...)))
	for name, v := range untraced[0].counts {
		r.Metrics[name] = metricValue{Value: v}
	}
	for name, v := range rigs {
		r.Metrics[name] = metricValue{Value: v}
	}
	if err := flightWaits(r, rec, traced[len(traced)-1].flight); err != nil {
		return nil, err
	}
	sim := untraced[0].sim
	r.Metrics["load.failed_share"] = metricValue{Value: ratio(float64(sim.Failed+sim.Unresolved), float64(sim.Offered))}

	// P: the traced repeats' CPU profiles, bucketed by layer.
	var stacks []stackSample
	for _, s := range traced {
		ss, err := parseProfile(s.profile)
		if err != nil {
			return nil, err
		}
		stacks = append(stacks, ss...)
	}
	prof := hostShares(stacks)
	for layer, share := range prof.layer {
		if layer != layerOther {
			r.Metrics[layer+".host_share"] = metricValue{Value: share}
		}
	}
	for _, b := range nocBuckets {
		r.Metrics["noc."+b+"_share"] = metricValue{Value: prof.noc[b]}
	}
	r.Metrics["bench.host_share_coverage"] = metricValue{Value: prof.covered(), N: int(prof.samples)}
	r.Metrics["noc.host_ns_per_flit"] = metricValue{Value: ratio(
		prof.layer["noc"]/100*float64(prof.totalNs),
		untraced[0].counts["noc.flits_routed"]*float64(len(traced)))}

	// S: spans the harness recorded around its own calls.
	ms := func(name string) float64 { // mean duration of the spans called name
		ds := rec.durations(name)
		return ratio(float64(rec.total(name).Microseconds())/1e3, float64(len(ds)))
	}
	r.Metrics["load.parse_ms"] = metricValue{Value: ms("load.parse")}
	r.Metrics["core.new_system_ms"] = metricValue{Value: ms("core.new_system")}
	r.Metrics["core.load_app_ms"] = metricValue{Value: ms("core.load_app")}
	r.Metrics["cluster.new_ms"] = metricValue{Value: ms("cluster.new")}
	r.Metrics["cluster.deploy_ms"] = metricValue{Value: ms("cluster.deploy")}
	r.Metrics["load.report_ms"] = metricValue{Value: ms("load.report")}
	r.Metrics["obs.export_ms"] = metricValue{Value: ms("obs.export")}
	tails := func(span string, unit time.Duration, p50Name, tailName string) {
		var vs []float64
		for _, d := range rec.durations(span) {
			vs = append(vs, float64(d)/float64(unit))
		}
		p50, tail, pct := tailOf(vs)
		r.Metrics[p50Name] = metricValue{Value: p50, Pct: 50, N: len(vs)}
		r.Metrics[tailName] = metricValue{Value: tail, Pct: pct, N: len(vs)}
	}
	tails("load.chunk", time.Millisecond, "load.chunk_ms_p50", "load.chunk_ms_p99")
	tails("cluster.epoch", time.Microsecond, "cluster.epoch_us_p50", "cluster.epoch_us_p99")

	// runtime and bench: from the untraced repeats, except the overhead.
	med := func(f func(sample) float64) float64 { return median(perRepeat(untraced, f)) }
	r.Metrics["cluster.cpu_per_wall"] = metricValue{Value: med(func(s sample) float64 { return s.cpu.Seconds() / s.wall.Seconds() })}
	r.Metrics["runtime.gc_cycles"] = metricValue{Value: med(func(s sample) float64 { return float64(s.gcCycles) })}
	r.Metrics["runtime.gc_pause_ms"] = metricValue{Value: med(func(s sample) float64 { return float64(s.gcPause.Microseconds()) / 1e3 })}
	r.Metrics["runtime.allocs_per_request"] = metricValue{Value: med(func(s sample) float64 { return ratio(float64(s.mallocs), float64(s.sim.OK)) })}
	r.Metrics["runtime.alloc_bytes_per_request"] = metricValue{Value: med(func(s sample) float64 { return ratio(float64(s.allocBytes), float64(s.sim.OK)) })}
	r.Metrics["runtime.heap_live_mb"] = metricValue{Value: med(liveHeapMiB)}
	wallOf := func(s sample) float64 { return s.wall.Seconds() }
	r.Metrics["bench.trace_overhead_pct"] = metricValue{
		Value: 100 * (ratio(median(perRepeat(traced, wallOf)), med(wallOf)) - 1), N: len(traced)}
	r.Metrics["bench.repeat_spread_pct"] = metricValue{Value: 100 * spread(perRepeat(untraced, wallOf)), N: len(untraced)}

	r.fillUnits(perLayer)
	r.SpanTotals = rec.totals()

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(cfg.outDir, cfg.w.name+".trace.json"))
	if err != nil {
		return nil, err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return nil, err
	}
	return r, f.Close()
}
