package load

import (
	"fmt"

	"apiary/internal/accel"
	"apiary/internal/apps"
	"apiary/internal/cluster"
	"apiary/internal/core"
	"apiary/internal/fault"
	"apiary/internal/msg"
	"apiary/internal/sim"
)

// Backend service cost model: every request pays a fixed pipeline depth
// plus a per-byte cost, so the latency-vs-offered-rate curve has a real
// knee — a 4-byte request occupies the server tile for ~20 cycles, which
// caps one backend tile near 50k rpMc.
const (
	backendBaseCycles    = 16
	backendCyclesPerByte = 1
)

// scnFlow is the fleet deployment flow for the scenario service.
const scnFlow = uint16(9)

// mixSeed derives a per-generator seed (splitmix64 finalizer — the same
// construction the fleet uses for per-board seeds).
func mixSeed(seed uint64, idx int) uint64 {
	x := seed ^ (0x9e3779b97f4a7c15 * uint64(idx+1))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backendSpec builds the scenario's echo backend app for service svc. mem,
// when nonzero, attaches a managed-memory segment the backend never touches
// but the checkpoint path must carry — the knob that gives a migration's
// snapshot transfer real weight on the cluster link.
func backendSpec(name string, svc msg.ServiceID, mem int) core.AppSpec {
	return core.AppSpec{
		Name:    name,
		Exports: []msg.ServiceID{svc},
		Accels: []core.AppAccel{{
			Name: "stage", Service: svc, MemBytes: uint64(mem),
			New: func() accel.Accelerator {
				return apps.NewStage(apps.StageConfig{
					Name:          "scn-echo",
					BaseCycles:    backendBaseCycles,
					CyclesPerByte: backendCyclesPerByte,
					Process:       func(in []byte) ([]byte, msg.ErrCode) { return in, msg.EOK },
				})
			},
		}},
	}
}

// BoardRun is a compiled scenario wired onto one board: the system, its
// backend service, and the open-loop generator.
type BoardRun struct {
	Scn *Scenario
	Sys *core.System
	Gen *Generator
}

// NewBoardRun boots a single board for scn. The scenario's chaos plan (if
// any) is merged with whatever plan cfg already carries — the chaos
// cross-product — and the generator and an echo backend for scn.Target are
// placed. Fleet scenarios (a fleet stanza or kill directives) must run
// through NewFleetRun instead.
func NewBoardRun(scn *Scenario, cfg core.SystemConfig) (*BoardRun, error) {
	if scn.Fleet != nil || len(scn.Kills) > 0 {
		return nil, fmt.Errorf("load: scenario %q declares a fleet; run it with -fleet", scn.Name)
	}
	if cfg.Seed == 0 {
		cfg.Seed = scn.Seed
	}
	if scn.Chaos != nil {
		cfg.FaultPlan = fault.Merge(cfg.FaultPlan, scn.Chaos)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := scn.Validate(sys.Noc.Dims()); err != nil {
		return nil, err
	}
	if _, err := sys.Kernel.LoadApp(backendSpec("scn-backend", scn.Target, scn.TgtMem)); err != nil {
		return nil, err
	}
	gen := NewGenerator(sys.Engine, scn, scn.Target, mixSeed(scn.Seed, 0), 0, 1)
	gen.Events = sys.Events
	if _, err := sys.Kernel.LoadApp(core.AppSpec{
		Name: "scn-load",
		Accels: []core.AppAccel{{
			Name: "gen", Connect: []msg.ServiceID{scn.Target},
			New: func() accel.Accelerator { return gen },
		}},
	}); err != nil {
		return nil, err
	}
	// migrate directives: the kernel live-migrates the backend to a fresh
	// region at the scheduled cycle. A start that fails (e.g. a previous
	// move still in flight) is a no-op; the kernel's decision log carries
	// the abort trail for moves that do start.
	for _, m := range scn.Migrate {
		sys.Engine.ScheduleNoHandle(m.At, func(sim.Cycle) {
			_ = sys.Kernel.MigrateApp("scn-backend")
		})
	}
	return &BoardRun{Scn: scn, Sys: sys, Gen: gen}, nil
}

// Now reports the engine cycle.
func (b *BoardRun) Now() sim.Cycle { return b.Sys.Engine.Now() }

// Run advances the board n cycles.
func (b *BoardRun) Run(n sim.Cycle) { b.Sys.Engine.Run(n) }

// Done reports whether the scenario ended and every arrival resolved.
func (b *BoardRun) Done() bool { return b.Gen.Done(b.Now()) }

// RunScenario runs phase-aligned chunks until the scenario completes (all
// arrivals resolved) or the drain budget past the scenario end is
// exhausted. Chunk edges land exactly on phase boundaries, the same
// alignment contract apiaryd keeps for HTTP observers.
func (b *BoardRun) RunScenario(drain sim.Cycle) {
	limit := b.Scn.Dur() + drain
	for !b.Done() && b.Now() < limit {
		step := limit - b.Now()
		if edge := b.Scn.NextBoundary(b.Now()); edge > b.Now() && edge-b.Now() < step {
			step = edge - b.Now()
		}
		if step > 4096 {
			step = 4096
		}
		b.Run(step)
	}
}

// Fingerprint is the run's client-visible fingerprint.
func (b *BoardRun) Fingerprint() uint64 { return b.Gen.Recording().Fingerprint() }

// Status snapshots the live run (callers must not race the tick phase —
// apiaryd holds its step mutex, tests call between Run steps).
func (b *BoardRun) Status() Status {
	return status(b.Scn, b.Now(), 1, []*Generator{b.Gen})
}

// Report aggregates the per-phase results.
func (b *BoardRun) Report() []PhaseReport {
	return report(b.Scn, []*Generator{b.Gen})
}

// FleetRun is a compiled scenario wired onto a multi-board fleet: the
// target service replicated with anti-affinity, one generator per client
// board (each carrying an equal share of the offered rate and session
// population), and the scenario's board kills scheduled.
type FleetRun struct {
	Scn  *Scenario
	Fl   *cluster.Fleet
	Gens []*Generator // one per client board, ascending board ID
}

// NewFleetRun boots the fleet scn asks for. cfg supplies the per-board
// template and link model; boards and seed come from the scenario (cfg
// values win only when the scenario leaves them unset — boards from the
// fleet stanza are authoritative).
func NewFleetRun(scn *Scenario, cfg cluster.Config) (*FleetRun, error) {
	fs := scn.Fleet
	if fs == nil {
		return nil, fmt.Errorf("load: scenario %q has no fleet stanza", scn.Name)
	}
	cfg.Boards = fs.Boards
	if cfg.Seed == 0 {
		cfg.Seed = scn.Seed
	}
	if scn.Chaos != nil {
		// The chaos plan arms on every board (the template is per-board),
		// so a scenario line like `chaos stall ...` exercises each board's
		// containment identically — the cross-product at fleet scale.
		cfg.Board.FaultPlan = fault.Merge(cfg.Board.FaultPlan, scn.Chaos)
	}
	fl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := scn.Validate(fl.Board(0).Sys.Noc.Dims()); err != nil {
		fl.Close()
		return nil, err
	}
	eps, err := fl.Orchestrator().DeployService(cluster.ServiceDeployment{
		Name: "scn-" + scn.Name, Svc: scn.Target, Flow: scnFlow, Replicas: fs.Replicas,
		Spec: func(r int) core.AppSpec {
			return backendSpec(fmt.Sprintf("scn-backend-r%d", r), scn.Target, scn.TgtMem)
		},
	})
	if err != nil {
		fl.Close()
		return nil, err
	}
	replica := map[int]bool{}
	for _, ep := range eps {
		replica[ep.Board] = true
	}
	r := &FleetRun{Scn: scn, Fl: fl}
	clients := 0
	for board := 0; board < fl.Boards() && clients < fs.Clients; board++ {
		if replica[board] {
			continue
		}
		if err := fl.Orchestrator().ConnectClient(board, scn.Target, "scn-"+scn.Name); err != nil {
			fl.Close()
			return nil, err
		}
		gen := NewGenerator(fl.Board(board).Sys.Engine, scn, scn.Target, mixSeed(scn.Seed, board), clients, fs.Clients)
		gen.Events = fl.Board(board).Sys.Events
		gen.Board = board
		if _, err := fl.Board(board).Sys.Kernel.LoadApp(core.AppSpec{
			Name: "scn-load",
			Accels: []core.AppAccel{{
				Name: "gen", Connect: []msg.ServiceID{scn.Target},
				New: func() accel.Accelerator { return gen },
			}},
		}); err != nil {
			fl.Close()
			return nil, err
		}
		r.Gens = append(r.Gens, gen)
		clients++
	}
	if clients < fs.Clients {
		fl.Close()
		return nil, fmt.Errorf("load: fleet has only %d non-replica boards for %d clients",
			clients, fs.Clients)
	}
	for _, k := range scn.Kills {
		fl.KillBoardAt(k.Board, k.At)
	}
	for _, m := range scn.Migrate {
		fl.Orchestrator().MigrateReplicaAt("scn-"+scn.Name, m.Replica, m.At)
	}
	for _, d := range scn.Drains {
		fl.Orchestrator().DrainBoardAt(d.Board, d.At)
	}
	return r, nil
}

// Now reports the fleet clock.
func (r *FleetRun) Now() sim.Cycle { return r.Fl.Now() }

// Run advances the fleet n cycles (epoch-clamped internally).
func (r *FleetRun) Run(n sim.Cycle) { r.Fl.Run(n) }

// Done reports whether every generator finished.
func (r *FleetRun) Done() bool {
	now := r.Now()
	for _, g := range r.Gens {
		if !g.Done(now) {
			return false
		}
	}
	return true
}

// RunScenario runs phase-aligned chunks until every generator completes or
// the drain budget past the scenario end is exhausted. Steps shrink to the
// next phase boundary first, then to the fleet epoch inside cluster.Run —
// both alignments hold at once because a boundary-clamped step is still
// epoch-chunked by the fleet.
func (r *FleetRun) RunScenario(drain sim.Cycle) {
	limit := r.Scn.Dur() + drain
	for !r.Done() && r.Now() < limit {
		step := limit - r.Now()
		if edge := r.Scn.NextBoundary(r.Now()); edge > r.Now() && edge-r.Now() < step {
			step = edge - r.Now()
		}
		if max := 64 * r.Fl.Epoch(); step > max {
			step = max
		}
		r.Run(step)
	}
}

// Close releases the fleet's worker pool.
func (r *FleetRun) Close() { r.Fl.Close() }

// Fingerprint folds the per-generator fingerprints in board order into the
// fleet's client-visible fingerprint. Board kills land at epoch barriers,
// so a killed client board's generator simply stops completing — its
// recording stays deterministic.
func (r *FleetRun) Fingerprint() uint64 {
	fps := make([]uint64, 0, len(r.Gens))
	for _, g := range r.Gens {
		fps = append(fps, g.Recording().Fingerprint())
	}
	return CombineFingerprints(fps)
}

// Status snapshots the live run (call at barriers only).
func (r *FleetRun) Status() Status {
	return status(r.Scn, r.Now(), r.Fl.Boards(), r.Gens)
}

// Report aggregates the per-phase results across all generators.
func (r *FleetRun) Report() []PhaseReport {
	return report(r.Scn, r.Gens)
}

// Status is the live view of a scenario run, served by apiaryd on
// /scenario.json and rendered by apiaryctl top/fleet.
type Status struct {
	Scenario   string  `json:"scenario"`
	Now        uint64  `json:"now"`
	End        uint64  `json:"end"`
	Phase      string  `json:"phase"`
	PhaseIdx   int     `json:"phase_idx"`
	PhaseCount int     `json:"phase_count"`
	PhaseEnd   uint64  `json:"phase_end"`
	RateNow    uint64  `json:"rate_now_rpmc"` // offered rpMc at Now (all generators)
	Offered    uint64  `json:"offered"`
	OK         uint64  `json:"ok"`
	Denied     uint64  `json:"denied"`
	Timeout    uint64  `json:"timeout"`
	Shed       uint64  `json:"shed"`
	P50        float64 `json:"p50_cycles"` // current phase, arrival-stamped
	P99        float64 `json:"p99_cycles"`
	Sessions   int     `json:"sessions"`         // population
	Touched    int     `json:"sessions_touched"` // distinct sessions seen
	Boards     int     `json:"boards,omitempty"`
	Generators int     `json:"generators"`
}

func status(scn *Scenario, now sim.Cycle, boards int, gens []*Generator) Status {
	st := Status{
		Scenario:   scn.Name,
		Now:        uint64(now),
		End:        uint64(scn.Dur()),
		PhaseCount: len(scn.Phases),
		Sessions:   scn.Sessions,
		Generators: len(gens),
	}
	if boards > 1 {
		st.Boards = boards
	}
	t := now
	if t >= scn.Dur() {
		t = scn.Dur() - 1
	}
	pi, _ := scn.PhaseAt(t)
	st.PhaseIdx = pi
	st.Phase = scn.Phases[pi].Name
	st.PhaseEnd = uint64(scn.NextBoundary(t))
	if now < scn.Dur() {
		st.RateNow = scn.RateAt(now)
	}
	var lat sim.Histogram
	for _, g := range gens {
		off, ok, den, to, shed := g.Totals()
		st.Offered += off
		st.OK += ok
		st.Denied += den
		st.Timeout += to
		st.Shed += shed
		st.Touched += g.SessionsTouched()
		lat.Merge(&g.Phases()[pi].Lat)
	}
	if lat.Count() > 0 {
		st.P50 = lat.Median()
		st.P99 = lat.P99()
	}
	return st
}

// PhaseReport is one phase's aggregated client-visible result.
type PhaseReport struct {
	Name        string
	Dur         sim.Cycle
	OfferedRpMc uint64 // mean offered rate over the phase
	GoodputRpMc uint64 // OK completions per 1e6 cycles of phase
	Offered     uint64
	OK          uint64
	Denied      uint64
	Timeout     uint64
	Shed        uint64
	P50         float64 // cycles, arrival-stamped
	P99         float64
	Mean        float64
}

func report(scn *Scenario, gens []*Generator) []PhaseReport {
	out := make([]PhaseReport, len(scn.Phases))
	for i, p := range scn.Phases {
		pr := &out[i]
		pr.Name = p.Name
		pr.Dur = p.Dur
		var lat sim.Histogram
		for _, g := range gens {
			ph := &g.Phases()[i]
			pr.Offered += ph.Offered
			pr.OK += ph.OK
			pr.Denied += ph.Denied
			pr.Timeout += ph.Timeout
			pr.Shed += ph.Shed
			lat.Merge(&ph.Lat)
		}
		if p.Dur > 0 {
			pr.OfferedRpMc = pr.Offered * 1_000_000 / uint64(p.Dur)
			pr.GoodputRpMc = pr.OK * 1_000_000 / uint64(p.Dur)
		}
		if lat.Count() > 0 {
			pr.P50 = lat.Median()
			pr.P99 = lat.P99()
			pr.Mean = lat.Mean()
		}
	}
	return out
}
