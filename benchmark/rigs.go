package main

import (
	"fmt"
	"time"

	"apiary/internal/cap"
	"apiary/internal/cluster"
	"apiary/internal/core"
	"apiary/internal/msg"
	"apiary/internal/noc"
	"apiary/internal/sim"
)

// Isolated rigs: each times one layer's public entry points with nothing
// else running, so a per-layer number exists that the workloads' traffic
// cannot blur. Every rig reports the median of rigBatches batches.
const rigBatches = 5

// sink keeps the rigs' results alive so the compiler cannot drop the calls.
var sink uint64

// timeRig runs batch rigBatches times and returns the median nanoseconds per
// operation, batch doing ops operations.
func timeRig(ops int, batch func()) float64 {
	per := make([]float64, rigBatches)
	for i := range per {
		t0 := time.Now()
		batch()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(per)
}

// runRigs returns the R metrics. scale shrinks the batches for the smoke test.
func runRigs(scale int) (map[string]float64, error) {
	out := map[string]float64{}

	// sim.dispatch_ns_per_tick: Engine.Step over 64 opaque no-op tickers,
	// per ticker call.
	{
		const tickers = 64
		e := sim.NewEngine(1)
		for i := 0; i < tickers; i++ {
			e.Register(sim.TickerFunc(func(sim.Cycle) {}))
		}
		steps := 20_000 / scale
		out["sim.dispatch_ns_per_tick"] = timeRig(steps*tickers, func() {
			for i := 0; i < steps; i++ {
				e.Step()
			}
		})
	}

	// sim.event_ns: Schedule one event and step the empty engine to fire it.
	{
		e := sim.NewEngine(1)
		n := 100_000 / scale
		fire := func(sim.Cycle) { sink++ }
		out["sim.event_ns"] = timeRig(n, func() {
			for i := 0; i < n; i++ {
				e.Schedule(e.Now()+1, fire)
				e.Step()
			}
		})
	}

	// noc.msg_ns_alone: one 64-B message corner to corner on an idle 4x4.
	{
		e := sim.NewEngine(1)
		n := noc.NewNetwork(e, sim.NewStats(), noc.Config{Dims: noc.Dims{W: 4, H: 4}})
		delivered := 0
		n.NI(15).SetDeliver(func(*msg.Message, sim.Cycle) { delivered++ })
		payload := make([]byte, 64)
		msgs := 10_000 / scale
		var sendErr error
		out["noc.msg_ns_alone"] = timeRig(msgs, func() {
			for i := 0; i < msgs && sendErr == nil; i++ {
				m := &msg.Message{Type: msg.TRequest, SrcTile: 0, DstTile: 15, Payload: payload}
				sendErr = n.NI(0).Send(m)
				for target := delivered + 1; sendErr == nil && delivered < target; {
					e.Step()
				}
			}
		})
		e.Close()
		if sendErr != nil {
			return nil, fmt.Errorf("noc rig: %w", sendErr)
		}
	}

	// cap.check_ns: the monitor's per-message pair, Table.Lookup + Checker.Check.
	{
		ck := cap.NewChecker()
		tb := cap.NewTable()
		var refs [16]cap.Ref
		for i := range refs {
			refs[i] = tb.Install(cap.Capability{Kind: cap.KindEndpoint, Rights: cap.RSend, Object: uint32(40 + i)})
		}
		n := 1_000_000 / scale
		out["cap.check_ns"] = timeRig(n, func() {
			for i := 0; i < n; i++ {
				c, _ := tb.Lookup(refs[i%len(refs)])
				sink += uint64(ck.Check(c, cap.RSend))
			}
		})
	}

	// msg.codec_ns: Encode + Decode of a 96-B request, the fleet bridge's unit.
	{
		m := &msg.Message{Type: msg.TRequest, SrcTile: 1, DstTile: 2, DstSvc: svcTarget,
			Seq: 9, Payload: make([]byte, 96)}
		n := 200_000 / scale
		var codecErr error
		out["msg.codec_ns"] = timeRig(n, func() {
			for i := 0; i < n && codecErr == nil; i++ {
				w, err := m.Encode()
				if err != nil {
					codecErr = err
					break
				}
				d, err := msg.Decode(w)
				if err != nil {
					codecErr = err
					break
				}
				sink += uint64(d.Seq)
			}
		})
		if codecErr != nil {
			return nil, fmt.Errorf("msg rig: %w", codecErr)
		}
	}

	// cluster.idle_epoch_us: 16 empty boards, so an epoch is the barrier, the
	// frame exchange and the orchestrator scan and nothing else.
	{
		fl, err := cluster.New(cluster.Config{Boards: 16,
			Board: core.SystemConfig{Dims: noc.Dims{W: 3, H: 3}, ManagedMemBytes: 1 << 20}})
		if err != nil {
			return nil, fmt.Errorf("cluster rig: %w", err)
		}
		epochs := max(1000/scale, 1)
		out["cluster.idle_epoch_us"] = timeRig(epochs, func() {
			fl.Run(sim.Cycle(epochs) * fl.Epoch())
		}) / 1e3
		fl.Close()
	}
	return out, nil
}
