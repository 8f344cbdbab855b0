package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"apiary/internal/sim"
)

func TestSampleLayer(t *testing.T) {
	stack := func(fns ...string) []frame {
		var fs []frame
		for _, fn := range fns {
			file := ""
			if name, f, ok := strings.Cut(fn, "@"); ok {
				fn, file = name, f
			}
			fs = append(fs, frame{Func: fn, File: file})
		}
		return fs
	}
	for _, c := range []struct {
		name       string
		frames     []frame
		layer, sub string
	}{
		{"map iteration under netstack is netstack",
			stack("runtime.mapiternext", "apiary/internal/netstack.(*Transport).Tick", "apiary/internal/sim.(*Engine).tickAll", "main.main"),
			"netstack", ""},
		{"innermost apiary frame wins",
			stack("apiary/internal/cap.(*Checker).Check", "apiary/internal/monitor.(*Monitor).Tick", "main.main"),
			"monitor", ""},
		{"no apiary and no harness frame is the runtime",
			stack("runtime.scanobject", "runtime.gcBgMarkWorker"), layerRuntime, ""},
		{"harness frames only is bench",
			stack("runtime.memmove", "main.(*meshInst).topUp", "main.main"), layerBench, ""},
		{"unknown internal package is other",
			stack("apiary/internal/brandnew.F", "main.main"), layerOther, ""},
		{"router", stack("apiary/internal/noc.(*Network).trySend@/x/internal/noc/router.go"), "noc", "router"},
		{"ni", stack("apiary/internal/noc.(*NetworkInterface).tick@/x/internal/noc/ni.go"), "noc", "ni"},
		{"band", stack("apiary/internal/noc.(*bandTicker).Tick@/x/internal/noc/state.go"), "noc", "band"},
		{"commit", stack("apiary/internal/noc.(*Network).Commit@/x/internal/noc/shard.go"), "noc", "commit"},
		{"express", stack("apiary/internal/noc.(*Network).settleExpress@/x/internal/noc/express.go"), "noc", "express"},
	} {
		layer, sub := sampleLayer(c.frames)
		if layer != c.layer || sub != c.sub {
			t.Errorf("%s: got (%q, %q), want (%q, %q)", c.name, layer, sub, c.layer, c.sub)
		}
	}

	p := hostShares([]stackSample{
		{Frames: stack("apiary/internal/noc.(*Network).trySend@router.go"), Count: 3, Nanos: 30},
		{Frames: stack("apiary/internal/noc.(*NetworkInterface).tick@ni.go"), Count: 1, Nanos: 10},
		{Frames: stack("apiary/internal/sim.(*Engine).tickAll"), Count: 5, Nanos: 50},
		{Frames: stack("runtime.gcBgMarkWorker"), Count: 1, Nanos: 10},
	})
	if p.layer["noc"] != 40 || p.noc["router"] != 30 || p.noc["ni"] != 10 || p.layer["sim"] != 50 ||
		p.layer[layerRuntime] != 10 || p.covered() != 90 || p.samples != 10 || len(p.seen) != 3 {
		t.Errorf("hostShares = %+v", p)
	}
}

// declaredSymbols parses a package's non-test sources and returns every
// function as the profile would name it (without the package path), with the
// file that declares it.
func declaredSymbols(t *testing.T, dir string) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources in %s: %v", dir, err)
	}
	out := map[string]string{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			sym := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				switch r := fd.Recv.List[0].Type.(type) {
				case *ast.StarExpr:
					if id, ok := r.X.(*ast.Ident); ok {
						sym = "(*" + id.Name + ")." + sym
					}
				case *ast.Ident:
					sym = r.Name + "." + sym
				}
			}
			out[sym] = path
		}
	}
	return out
}

// Every function internal/noc declares lands in exactly one sub-bucket, and
// the hot symbols the workloads were chosen around land where the README
// says they do (checked only while the symbol still exists: a later change
// that deletes a mechanism need not edit this table).
func TestNocBucketsCoverDeclaredSymbols(t *testing.T) {
	decl := declaredSymbols(t, filepath.Join("..", "internal", "noc"))
	perBucket := map[string]int{}
	for sym, file := range decl {
		b := nocBucket(sym, file)
		if !slices.Contains(nocBuckets, b) {
			t.Errorf("%s (%s) maps to unknown bucket %q", sym, file, b)
		}
		perBucket[b]++
	}
	t.Logf("noc symbols per bucket: %v", perBucket)
	for sym, want := range map[string]string{
		"(*Network).tickRouter":      "router",
		"(*Network).trySend":         "router",
		"(*Network).acceptFlit":      "router",
		"(*NetworkInterface).tick":   "ni",
		"(*NetworkInterface).Send":   "ni",
		"(*NetworkInterface).eject":  "ni",
		"(*bandTicker).Tick":         "band",
		"(*bandTicker).Idle":         "band",
		"(*Network).Commit":          "commit",
		"(*Network).settleExpress":   "express",
		"(*Network).expressEligible": "express",
	} {
		file, ok := decl[sym]
		if !ok {
			continue
		}
		if got := nocBucket(sym, file); got != want {
			t.Errorf("%s (%s) in bucket %q, want %q", sym, file, got, want)
		}
	}
}

// A package under apiary/internal that the benchmark links must have a layer,
// or its CPU time would fall into "other" unnoticed.
func TestLayerTableCoversLinkedPackages(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goTool, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	linked := 0
	for _, pkg := range strings.Fields(string(out)) {
		name, ok := strings.CutPrefix(pkg, internalPrefix)
		if !ok {
			continue
		}
		linked++
		if _, ok := packageLayer[name]; !ok {
			t.Errorf("linked package %s has no entry in packageLayer", pkg)
		}
	}
	if linked == 0 {
		t.Fatal("go list reported no apiary/internal dependency")
	}
	layers := map[string]bool{}
	for _, d := range perLayer {
		if l, ok := strings.CutSuffix(d.Name, ".host_share"); ok {
			layers[l] = true
		}
	}
	for pkg, layer := range packageLayer {
		if !layers[layer] {
			t.Errorf("package %s is charged to layer %q, which has no host_share metric", pkg, layer)
		}
	}
}

var spinSink uint64

// The profile reader against the real thing: profile a loop that spins in
// internal/sim, and find it.
func TestParseProfileOfOwnProcess(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	rng := sim.NewRNG(1)
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := 0; i < 10_000; i++ {
			spinSink += uint64(rng.Intn(1000))
		}
	}
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	p := hostShares(samples)
	if p.samples < 5 || p.totalNs <= 0 {
		t.Fatalf("profile has %d samples over %d ns; want a few dozen", p.samples, p.totalNs)
	}
	found := false
	for sym := range p.seen {
		found = found || strings.HasPrefix(sym, "apiary/internal/sim.(*RNG).")
		if pkg, _, ok := splitSymbol(sym); !ok || packageLayer[pkg] == "" {
			t.Errorf("symbol %s maps to no layer", sym)
		}
	}
	if !found || p.layer["sim"] == 0 {
		t.Errorf("spin loop in sim.(*RNG) not found: shares %v, symbols %v", p.layer, p.seen)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}
