package load

import (
	"fmt"
	"reflect"
	"testing"

	"apiary/internal/msg"
)

// sparseScn is a mostly idle board: a flat 200 rpMc stretch (one arrival
// every 5000 cycles), a low base rate with a burst train, and a trickle.
// Almost every cycle of it is dead time the engine may fast-forward over.
const sparseScn = `
scenario sparse
seed 5
sessions 2000
target svc=40
timeout 10000
class get weight=3 bytes=8
class put weight=1 bytes=48
phase flat dur=300000 rate=200
phase burst dur=200000 rate=100 burst=3000@25000x2000
phase tail dur=100000 rate=50
`

// Fingerprints of the skip-axis cases as a generator ticked through every
// cycle produced them, before it became a timed source. The timed source
// must reproduce them exactly, with idle-skip on and off.
const (
	fpSkipDiff     = 0xa8338789ec04a451
	fpSkipFleet    = 0x5615a00a00965c68
	fpSkipSparse   = 0xa43f606bde169993
	fpSkipGenHang  = 0xf0ec240ff98da7d8
	fpSkipBackHang = 0xb57ab6585233c5d5
)

// skipResult is what a skip-axis run must hold constant.
type skipResult struct {
	fp  uint64
	rep []PhaseReport
}

// runBoardSkip runs scn on one board with idle-skip on or off, replaying
// rec when it is non-nil.
func runBoardSkip(t *testing.T, scn *Scenario, skip bool, rec *Recording) (skipResult, *BoardRun) {
	t.Helper()
	br, err := NewBoardRun(scn, boardCfg(0))
	if err != nil {
		t.Fatalf("board run: %v", err)
	}
	br.Sys.Engine.SetIdleSkip(skip)
	if rec != nil {
		br.Gen.SetReplay(rec)
	}
	br.RunScenario(30000)
	return skipResult{fp: br.Fingerprint(), rep: br.Report()}, br
}

// checkSkipAxis runs scn with idle-skip on and off and demands identical
// fingerprints and reports, pinned to want.
func checkSkipAxis(t *testing.T, scn *Scenario, rec *Recording, want uint64) {
	t.Helper()
	on, br := runBoardSkip(t, scn, true, rec)
	off, _ := runBoardSkip(t, scn, false, rec)
	if on.fp != off.fp {
		t.Fatalf("%s: fingerprint skip on %#x != skip off %#x", scn.Name, on.fp, off.fp)
	}
	if !reflect.DeepEqual(on.rep, off.rep) {
		t.Fatalf("%s: report skip on %+v != skip off %+v", scn.Name, on.rep, off.rep)
	}
	if on.fp != want {
		t.Errorf("%s: fingerprint %#x, pinned %#x", scn.Name, on.fp, want)
	}
	t.Logf("%s: fp %#x skipped %d of %d cycles", scn.Name, on.fp,
		br.Sys.Engine.SkippedCycles(), br.Now())
}

// withChaos appends a chaos line to a scenario text.
func withChaos(t *testing.T, text, line string) *Scenario {
	t.Helper()
	return mustParse(t, text+"chaos "+line+"\n")
}

// appTile reports the tile the named app's first accelerator landed on for
// scn (placement is deterministic, so a probe board shows where the real
// run will put it).
func appTile(t *testing.T, scn *Scenario, app string) msg.TileID {
	t.Helper()
	br, err := NewBoardRun(scn, boardCfg(0))
	if err != nil {
		t.Fatalf("probe board: %v", err)
	}
	defer br.Sys.Engine.Close()
	return br.Sys.Kernel.App(app).Placed[0].Tile
}

func TestSkipAxisBoard(t *testing.T) {
	checkSkipAxis(t, mustParse(t, diffScn), nil, fpSkipDiff)
	checkSkipAxis(t, mustParse(t, sparseScn), nil, fpSkipSparse)
}

func TestSkipAxisReplay(t *testing.T) {
	scn := mustParse(t, sparseScn)
	rec, br := runBoardSkip(t, scn, true, nil)
	checkSkipAxis(t, scn, br.Recording(), rec.fp)
}

func TestSkipAxisChaosHang(t *testing.T) {
	base := mustParse(t, sparseScn)
	// The generator's own tile hangs mid-run: it accrues nothing while
	// hung, with or without fast-forward around the hang.
	gen := appTile(t, base, "scn-load")
	checkSkipAxis(t, withChaos(t, sparseScn,
		fmt.Sprintf("hang at=150000 tile=%d dur=20000", gen)), nil, fpSkipGenHang)
	// The backend hangs longer than the timeout: requests time out while
	// the board is otherwise idle, so the head timeout is the next wake.
	back := appTile(t, base, "scn-backend")
	checkSkipAxis(t, withChaos(t, sparseScn,
		fmt.Sprintf("hang at=100000 tile=%d dur=40000", back)), nil, fpSkipBackHang)
}

func TestSkipAxisFleet(t *testing.T) {
	scn := mustParse(t, fleetScn)
	for _, workers := range []int{1, 4} {
		for _, skip := range []bool{true, false} {
			fr, err := NewFleetRun(scn, fleetCfg(workers))
			if err != nil {
				t.Fatalf("fleet run: %v", err)
			}
			for b := 0; b < fr.Fl.Boards(); b++ {
				fr.Fl.Board(b).Sys.Engine.SetIdleSkip(skip)
			}
			fr.RunScenario(40000)
			fp, done := fr.Fingerprint(), fr.Done()
			fr.Close()
			if fp != fpSkipFleet {
				t.Errorf("workers=%d skip=%v: fingerprint %#x, pinned %#x", workers, skip, fp, fpSkipFleet)
			}
			if !done {
				t.Errorf("workers=%d skip=%v: fleet did not drain", workers, skip)
			}
		}
	}
}

// TestSparseBoardSkips pins the point of the timed source: a board at 200
// rpMc is idle almost every cycle, and the engine must fast-forward over
// those cycles rather than tick the generator through them.
func TestSparseBoardSkips(t *testing.T) {
	br, err := NewBoardRun(mustParse(t, sparseScn), boardCfg(0))
	if err != nil {
		t.Fatalf("board run: %v", err)
	}
	defer br.Sys.Engine.Close()
	br.Run(br.Scn.Phases[0].Dur) // the flat 200 rpMc phase
	share := float64(br.Sys.Engine.SkippedCycles()) / float64(br.Now())
	if share <= 0.9 {
		t.Fatalf("skipped share %.3f on a 200 rpMc board, want > 0.9", share)
	}
}

// TestSparseBoardAllocs guards the arm/wake path: a sparse board allocates
// per request, never per wake. The bound sits just above what the request
// path itself costs with a generator ticked every cycle (5.24 allocs per
// request: the message, its payload, the in-flight record, the reply); one
// allocation per wake would add at least one per request.
func TestSparseBoardAllocs(t *testing.T) {
	scn := mustParse(t, sparseScn)
	br, err := NewBoardRun(scn, boardCfg(0))
	if err != nil {
		t.Fatalf("board run: %v", err)
	}
	defer br.Sys.Engine.Close()
	br.Run(100_000) // fill pools and grow the recording slices
	before, _, _, _, _ := br.Gen.Totals()
	const runs, chunk = 4, 40_000
	allocs := testing.AllocsPerRun(runs, func() { br.Run(chunk) })
	after, _, _, _, _ := br.Gen.Totals()
	reqs := float64(after-before) / (runs + 1) // AllocsPerRun adds a warm-up run
	if reqs < 1 {
		t.Fatalf("only %.1f requests per chunk", reqs)
	}
	perReq := allocs / reqs
	t.Logf("%.0f allocs per chunk, %.1f requests per chunk, %.2f allocs per request", allocs, reqs, perReq)
	if perReq > 5.5 {
		t.Fatalf("%.2f allocs per request on a sparse board", perReq)
	}
}
