package load

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"apiary/internal/cluster"
	"apiary/internal/core"
	"apiary/internal/netsim"
	"apiary/internal/noc"
	"apiary/internal/sim"
)

// diffScn is the mixed scenario the differential tests run: a ramp, a
// burst+diurnal phase, a class mix, and a chaos-plan cross-product.
const diffScn = `
scenario diff
seed 11
sessions 5000
target svc=40
timeout 10000
class get weight=3 bytes=8
class put weight=1 bytes=48
phase ramp dur=16000 rate=2000..12000
phase rush dur=16000 rate=12000 burst=8000@5000x1000 diurnal=8000:3000
phase drain dur=8000 rate=1500
chaos stall at=12000 tile=4 port=E dur=1500
chaos hang at=18000 tile=5 dur=3000
`

// fleetScn adds a fleet stanza and a board kill to the same workload.
const fleetScn = `
scenario fleetdiff
seed 23
sessions 8000
target svc=40
timeout 12000
fleet boards=4 replicas=2 clients=2
class get weight=8 bytes=16
class put weight=2 bytes=96
phase ramp dur=12000 rate=1000..8000
phase rush dur=16000 rate=8000 burst=6000@4000x800
phase drain dur=8000 rate=1500
kill board=0 at=16000
chaos stall at=9000 tile=4 port=E dur=1200
`

func mustParse(t *testing.T, text string) *Scenario {
	t.Helper()
	scn, err := ParseScenario([]byte(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return scn
}

func TestParseTextRoundTrip(t *testing.T) {
	scn := mustParse(t, fleetScn)
	if err := scn.Validate(noc.Dims{W: 3, H: 3}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// String must re-parse to an identical scenario (fixed point).
	again := mustParse(t, scn.String())
	if scn.String() != again.String() {
		t.Fatalf("text round trip diverged:\n%s\nvs\n%s", scn.String(), again.String())
	}
	if again.Fleet == nil || again.Fleet.Boards != 4 || again.Chaos == nil {
		t.Fatalf("round trip lost stanzas: %+v", again)
	}
	if len(again.Phases) != 3 || again.Phases[1].Burst == nil {
		t.Fatalf("round trip lost phases: %+v", again.Phases)
	}
}

func TestParseJSONRoundTrip(t *testing.T) {
	scn := mustParse(t, diffScn)
	raw, err := json.Marshal(scn)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	again, err := ParseScenario(raw)
	if err != nil {
		t.Fatalf("parse json: %v", err)
	}
	if scn.String() != again.String() {
		t.Fatalf("json round trip diverged:\n%s\nvs\n%s", scn.String(), again.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"bogus directive",
		"phase p rate=5",                   // missing dur
		"phase p dur=100",                  // missing rate
		"phase p dur=100 rate=1..2..3",     // bad ramp
		"phase p dur=100 rate=5 burst=1@2", // bad burst shape
		"phase p dur=100 rate=5 diurnal=9", // bad diurnal shape
		"class c weight=0",                 // missing bytes
		"kill board=1",                     // missing at
		"target svc=99999999",              // out of range
		"seed",                             // missing value
		"chaos explode at=1 tile=0",        // unknown chaos kind
		"phase p dur=100 rate=5 volume=11", // unknown phase key
		`{"scenario":"x","chaos":{"rates":[{"kind":"hang"}]}}`, // bad chaos rate
		`{"scenario":"x","sessions":-4}`,
	}
	for _, in := range bad {
		if _, err := ParseScenario([]byte(in)); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

func TestRateCurve(t *testing.T) {
	scn := mustParse(t, diffScn)
	// Ramp: 2000 at 0, ~12000 at the end of phase 1.
	if got := scn.RateAt(0); got != 2000 {
		t.Fatalf("rate at 0 = %d, want 2000", got)
	}
	if got := scn.RateAt(15999); got < 11900 || got > 12000 {
		t.Fatalf("rate at ramp end = %d, want ~12000", got)
	}
	// Burst windows add 8000 for the first 1000 cycles of every 5000.
	inBurst := scn.RateAt(16000) // rush offset 0: burst active, diurnal 0
	if inBurst != 12000+8000 {
		t.Fatalf("burst rate = %d, want 20000", inBurst)
	}
	outBurst := scn.RateAt(16000 + 2000) // diurnal(2000 of 8000) = +swing
	if outBurst != 12000+3000 {
		t.Fatalf("diurnal peak rate = %d, want 15000", outBurst)
	}
	// Diurnal trough: offset 6000 of period 8000 = -swing.
	trough := scn.RateAt(16000 + 6000)
	if trough != 12000-3000 {
		t.Fatalf("diurnal trough rate = %d, want 9000", trough)
	}
	// After the end the rate is zero.
	if got := scn.RateAt(scn.Dur() + 5); got != 0 {
		t.Fatalf("rate past end = %d, want 0", got)
	}
	// Boundaries: next edge from 0 is the first phase end.
	if e := scn.NextBoundary(0); e != 16000 {
		t.Fatalf("boundary from 0 = %d, want 16000", e)
	}
	if e := scn.NextBoundary(16000); e != 32000 {
		t.Fatalf("boundary from 16000 = %d, want 32000", e)
	}
	if e := scn.NextBoundary(scn.Dur()); e != scn.Dur() {
		t.Fatalf("boundary at end = %d, want %d", e, scn.Dur())
	}
}

// TestFlatUntil checks FlatUntil by brute force against RateAt over every
// cycle of every phase: the rate holds on [t, FlatUntil(t)), and in a phase
// without ramp or diurnal swing FlatUntil reaches the first real change or
// the phase boundary, whichever comes first.
func TestFlatUntil(t *testing.T) {
	smoke, err := os.ReadFile(filepath.Join("testdata", "smoke.scn"))
	if err != nil {
		t.Fatalf("read smoke scenario: %v", err)
	}
	for _, text := range []string{diffScn, fleetScn, string(smoke)} {
		scn := mustParse(t, text)
		dur := scn.Dur()
		// change[c] is the first cycle after c whose rate differs.
		change := make([]sim.Cycle, dur+1)
		change[dur] = dur + 1
		for c := dur; c > 0; c-- {
			if scn.RateAt(c-1) != scn.RateAt(c) {
				change[c-1] = c
			} else {
				change[c-1] = change[c]
			}
		}
		for c := sim.Cycle(0); c < dur; c++ {
			got := scn.FlatUntil(c)
			if got <= c || got > change[c] {
				t.Fatalf("%s: FlatUntil(%d) = %d, rate first changes at %d", scn.Name, c, got, change[c])
			}
			pi, _ := scn.PhaseAt(c)
			p := scn.Phases[pi]
			if p.RateFrom == p.RateTo && p.Diurnal == nil {
				if want := min(change[c], scn.NextBoundary(c)); got < want {
					t.Fatalf("%s: FlatUntil(%d) = %d in a flat phase, want %d", scn.Name, c, got, want)
				}
			}
		}
		if got := scn.FlatUntil(dur); got != dur+1 {
			t.Fatalf("%s: FlatUntil(end) = %d, want %d", scn.Name, got, dur+1)
		}
	}
}

// boardCfg is the single-board test system.
func boardCfg(shards int) core.SystemConfig {
	return core.SystemConfig{
		Dims:            noc.Dims{W: 4, H: 4},
		Shards:          shards,
		ManagedMemBytes: 1 << 20,
	}
}

// runBoard executes the diff scenario at the given shard count and
// returns the run for inspection.
func runBoard(t *testing.T, scn *Scenario, shards int) *BoardRun {
	t.Helper()
	br, err := NewBoardRun(scn, boardCfg(shards))
	if err != nil {
		t.Fatalf("board run (shards=%d): %v", shards, err)
	}
	br.RunScenario(30000)
	return br
}

func TestScenarioDifferential(t *testing.T) {
	scn := mustParse(t, diffScn)

	// Serial vs sharded single board: bit-exact at shards 1/2/4.
	base := runBoard(t, scn, 0)
	if !base.Done() {
		t.Fatalf("serial run did not drain: %+v", base.Status())
	}
	_, ok, _, _, _ := base.Gen.Totals()
	if ok == 0 {
		t.Fatalf("serial run completed nothing: %+v", base.Status())
	}
	want := base.Fingerprint()
	for _, shards := range []int{1, 2, 4} {
		got := runBoard(t, scn, shards).Fingerprint()
		if got != want {
			t.Fatalf("shards=%d fingerprint %#x != serial %#x", shards, got, want)
		}
	}

	// Fleet workers 1 vs 4: bit-exact, kill and chaos included.
	fscn := mustParse(t, fleetScn)
	var fps []uint64
	for _, workers := range []int{1, 4} {
		fr, err := NewFleetRun(fscn, fleetCfg(workers))
		if err != nil {
			t.Fatalf("fleet run (workers=%d): %v", workers, err)
		}
		fr.RunScenario(40000)
		if !fr.Done() {
			t.Fatalf("fleet run (workers=%d) did not drain: %+v", workers, fr.Status())
		}
		st := fr.Status()
		if st.OK == 0 {
			t.Fatalf("fleet run (workers=%d) completed nothing: %+v", workers, st)
		}
		t.Logf("fleet workers=%d: %+v", workers, st)
		fps = append(fps, fr.Fingerprint())
		fr.Close()
	}
	if fps[0] != fps[1] {
		t.Fatalf("fleet workers 1 vs 4 fingerprints differ: %#x vs %#x", fps[0], fps[1])
	}
}

func fleetCfg(workers int) cluster.Config {
	return cluster.Config{
		Workers: workers,
		Board: core.SystemConfig{
			Dims:            noc.Dims{W: 3, H: 3},
			ManagedMemBytes: 1 << 20,
		},
		Link: netsim.LinkConfig{LatencyNs: 1000},
	}
}

func TestReplayFingerprint(t *testing.T) {
	scn := mustParse(t, diffScn)
	rec := runBoard(t, scn, 0)
	recording := rec.Recording()

	// The recording survives its text format.
	var buf bytes.Buffer
	if _, err := recording.WriteTo(&buf); err != nil {
		t.Fatalf("write recording: %v", err)
	}
	parsed, err := ParseRecording(buf.Bytes())
	if err != nil {
		t.Fatalf("parse recording: %v", err)
	}
	if parsed.Fingerprint() != recording.Fingerprint() {
		t.Fatalf("recording round trip changed fingerprint")
	}

	// Replaying the arrivals yields an identical delivered stream.
	br, err := NewBoardRun(scn, boardCfg(0))
	if err != nil {
		t.Fatalf("replay board: %v", err)
	}
	br.Gen.SetReplay(parsed)
	br.RunScenario(30000)
	if !br.Done() {
		t.Fatalf("replay did not drain: %+v", br.Status())
	}
	if got, want := br.Fingerprint(), recording.Fingerprint(); got != want {
		t.Fatalf("replay fingerprint %#x != recorded %#x", got, want)
	}
}

// Recording accessor for tests.
func (b *BoardRun) Recording() *Recording { return b.Gen.Recording() }

func TestScenarioGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "smoke.scn"))
	if err != nil {
		t.Fatalf("read smoke scenario: %v", err)
	}
	scn, err := ParseScenario(raw)
	if err != nil {
		t.Fatalf("parse smoke scenario: %v", err)
	}
	fr, err := NewFleetRun(scn, fleetCfg(0))
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	defer fr.Close()
	fr.RunScenario(40000)
	if !fr.Done() {
		t.Fatalf("smoke scenario did not drain: %+v", fr.Status())
	}
	got := "0x" + strconv.FormatUint(fr.Fingerprint(), 16) + "\n"

	goldenPath := filepath.Join("testdata", "smoke.golden")
	if os.Getenv("UPDATE_SCENARIO_GOLDEN") == "1" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		t.Logf("golden refreshed: %s", strings.TrimSpace(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_SCENARIO_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("smoke fingerprint %s != golden %s (deliberate change? make scenario-golden and commit with scenario-baseline-refresh)",
			strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}

func TestStatusAndReport(t *testing.T) {
	scn := mustParse(t, diffScn)
	br := runBoard(t, scn, 0)
	st := br.Status()
	if st.Scenario != "diff" || st.Offered == 0 || st.OK == 0 {
		t.Fatalf("status: %+v", st)
	}
	if st.Touched == 0 || st.Touched > scn.Sessions {
		t.Fatalf("sessions touched %d outside (0, %d]", st.Touched, scn.Sessions)
	}
	rep := br.Report()
	if len(rep) != 3 {
		t.Fatalf("want 3 phase reports, got %d", len(rep))
	}
	var offered uint64
	for _, pr := range rep {
		offered += pr.Offered
		if pr.Offered != pr.OK+pr.Denied+pr.Timeout+pr.Shed {
			t.Fatalf("phase %q books don't balance: %+v", pr.Name, pr)
		}
	}
	if offered != st.Offered {
		t.Fatalf("report offered %d != status offered %d", offered, st.Offered)
	}
	// The ramp phase offered roughly (2000+12000)/2 rpMc.
	if rep[0].OfferedRpMc < 6000 || rep[0].OfferedRpMc > 8000 {
		t.Fatalf("ramp offered rate %d rpMc, want ~7000", rep[0].OfferedRpMc)
	}
	if rep[0].OK > 0 && rep[0].P99 < rep[0].P50 {
		t.Fatalf("p99 %.0f < p50 %.0f", rep[0].P99, rep[0].P50)
	}
	// JSON encoding (the /scenario.json payload) must round-trip.
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("status marshal: %v", err)
	}
	var back Status
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("status unmarshal: %v", err)
	}
	if back != st {
		t.Fatalf("status round trip: %+v vs %+v", back, st)
	}
}

func TestTriangleWave(t *testing.T) {
	// One full period: 0 -> +s -> 0 -> -s -> 0.
	const period, swing = 1000, 400
	pts := map[sim.Cycle]int64{0: 0, 250: swing, 500: 0, 750: -swing}
	for pos, want := range pts {
		if got := triangle(pos, period, swing); got != want {
			t.Fatalf("triangle(%d) = %d, want %d", pos, got, want)
		}
	}
}
