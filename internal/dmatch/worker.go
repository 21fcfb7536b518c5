package dmatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"dcer/internal/chase"
	"dcer/internal/hypart"
	"dcer/internal/mlpred"
	"dcer/internal/mqo"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
	"dcer/internal/wire"
)

// worker is the worker half of DMatch — one slot P_i of Section V-B, the
// same whether it runs as a goroutine behind a loopback link or as a
// process behind RunWorker's connection. It holds one chase engine over
// the whole dataset that enumerates only the valuations in the cells the
// slot currently owns.
type worker struct {
	id    int
	d     *relation.Dataset
	rules []*rule.Rule
	reg   *mlpred.Registry
	// ix is the process's one index set over d, which every engine of
	// every slot in the process binds against under MQO sharing, rebuilt
	// engines included.
	ix *relation.IndexSet
	// cubes are the rules' hypercubes: the partition's, shared by the
	// slots of the master's process; a worker process derives its own
	// from its first Assign (hypart.Cubes). Every Assign's extents must
	// be theirs.
	cubes []hypart.Cube
	// hooks carries the observability options (Metrics, MetricsLabels,
	// Provenance) every engine of this slot is built with. They never
	// change Γ; a worker process has none. Each Assign sets ShareIndexes
	// from its NoMQO bit.
	hooks chase.Options

	eng *chase.Engine
	// retired sums the work counters of the engines reassignments
	// replaced, so the slot's final Stats cover all the work it did.
	retired chase.Stats
	replay  []chase.Fact // fact history the fresh engine folds on its first Step
	fresh   bool         // eng has not run Deduce yet
}

// handle executes one master message and returns the reply it calls for:
// Assign builds a fresh engine over the cells it grants (no reply), Step
// runs the superstep — partial evaluation A of a fresh engine, then the
// replayed history and the inbox through A_Δ — and replies with the delta,
// Done replies with the slot's final stats. tc is the superstep's trace
// context when master and worker share a process.
func (w *worker) handle(m wire.Msg, tc telemetry.TraceContext) (*wire.Delta, *chase.Stats, error) {
	switch m.Type {
	case wire.MsgAssign:
		if w.eng != nil {
			w.retired.Add(w.eng.Stats())
		}
		a := m.Assign
		w.hooks.ShareIndexes = !a.NoMQO
		eng, err := w.build(&a)
		if err != nil {
			return nil, nil, fmt.Errorf("dmatch: worker %d: %w", w.id, err)
		}
		w.eng, w.replay, w.fresh = eng, a.Replay, true
	case wire.MsgStep:
		if w.eng == nil {
			return nil, nil, fmt.Errorf("dmatch: worker %d: step before assign", w.id)
		}
		s := m.Step
		w.hooks.Provenance.SetStep(s.Step)
		if tc.Enabled() {
			// Re-parent the engine under this superstep, on the worker's
			// lane, so its Deduce/IncDeduce roots render as the step's
			// children. The engine is quiescent between Steps.
			w.eng.SetTraceContext(tc.Lane(telemetry.PIDDMatch, int32(w.id+1)))
		}
		start := time.Now()
		var facts []chase.Fact
		inbox := s.Facts
		if w.fresh {
			facts = w.eng.Deduce()
			inbox = append(w.replay, inbox...)
			w.replay, w.fresh = nil, false
		}
		if len(inbox) > 0 {
			facts = append(facts, w.eng.IncDeduce(inbox)...)
		}
		return &wire.Delta{Step: s.Step, BusyNs: int64(time.Since(start)), Facts: facts}, nil, nil
	case wire.MsgDone:
		st := w.retired
		if w.eng != nil {
			st = w.eng.Stats()
			st.Add(w.retired)
		}
		return nil, &st, nil
	case wire.MsgPong:
		// masters don't ping, but tolerate it
	default:
		return nil, nil, fmt.Errorf("dmatch: worker %d: unexpected %d frame", w.id, m.Type)
	}
	return nil, nil, nil
}

// build constructs the engine an Assign grants: one over the whole
// dataset that owns, per rule, the cells the Assign's bitmap marks. Under
// MQO sharing every rule probes ix, the process's index set. An Assign
// whose rules or extents are not the worker's cubes' is refused.
func (w *worker) build(a *wire.Assign) (*chase.Engine, error) {
	if w.cubes == nil {
		plan, err := mqo.Build(w.rules, !a.NoMQO)
		if err != nil {
			return nil, err
		}
		if w.cubes, err = hypart.Cubes(w.d, plan, a.Extents); err != nil {
			return nil, err
		}
	}
	if len(a.Extents) != len(w.cubes) || len(a.Owned) != len(w.cubes) {
		return nil, fmt.Errorf("assign for %d rules, the worker has %d", len(a.Extents), len(w.cubes))
	}
	cells := make([]chase.Cells, len(w.cubes))
	for r := range w.cubes {
		if !slices.Equal(a.Extents[r], w.cubes[r].Extents()) {
			return nil, fmt.Errorf("rule %s: assign's extents %v, the worker's cube has %v", w.rules[r].Name, a.Extents[r], w.cubes[r].Extents())
		}
		cells[r] = chase.Cells{Cube: &w.cubes[r], Owned: a.Owned[r]}
	}
	return chase.NewScoped(w.d, w.rules, cells, w.ix, w.reg, w.hooks)
}

// WorkerOptions configures one worker process (RunWorker).
type WorkerOptions struct {
	// Worker is this process's slot in [0, Workers).
	Worker int
	// Stats, when non-nil, receives this worker's wire tallies.
	Stats *wire.Stats
	// HeartbeatInterval is the Pong cadence; 0 means 1s. It must be well
	// under the master's HeartbeatTimeout.
	HeartbeatInterval time.Duration
	// CrashAfter, when > 0, makes the worker abruptly close its connection
	// and return ErrInjectedCrash after sending that many deltas — the
	// fault-injection hook for recovery tests and the CI smoke.
	CrashAfter int
}

// ErrInjectedCrash is returned by RunWorker when WorkerOptions.CrashAfter
// triggers — the fault-injection hook the recovery tests and the CI smoke
// use. The CLI maps it to a distinct exit code.
var ErrInjectedCrash = errors.New("dmatch: injected worker crash")

// RunWorker dials the master and serves the worker half of DMatch over
// the connection until MsgDone: every decoded frame goes through the same
// worker.handle the in-process links drive, and a side goroutine Pongs on
// an interval so a long Deduce never looks like a dead process. The
// dataset and rules are this process's own load of the same inputs the
// master has; the Hello digest (fingerprint) proves it.
func RunWorker(addr string, d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry, wopts WorkerOptions) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("dmatch: worker %d: dial %s: %w", wopts.Worker, addr, err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn, wopts.Stats)
	dec := wire.NewDecoder(conn, wopts.Stats)
	w := &worker{id: wopts.Worker, d: d, rules: rules, reg: reg, ix: relation.NewIndexSet(d)}
	err = enc.Hello(wire.Hello{Version: wire.Version, Worker: w.id, DatasetSize: d.Size(), Digest: fingerprint(d, rules)})
	if err != nil {
		return fmt.Errorf("dmatch: worker %d: hello: %w", w.id, err)
	}

	// From here on the encoder is shared between the main loop
	// (Delta/Stats) and the heartbeat goroutine (Pong); writes serialize on
	// encMu.
	var encMu sync.Mutex
	send := func(f func() error) error {
		encMu.Lock()
		defer encMu.Unlock()
		return f()
	}
	hb := wopts.HeartbeatInterval
	if hb <= 0 {
		hb = time.Second
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(hb)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if send(enc.Pong) != nil {
					return // connection gone; the main loop will see it too
				}
			}
		}
	}()

	sent := 0
	for {
		msg, err := dec.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				// Master gone without Done: abort quietly — the master (or
				// its successor) owns the run's outcome.
				return fmt.Errorf("dmatch: worker %d: master connection closed", w.id)
			}
			return fmt.Errorf("dmatch: worker %d: read: %w", w.id, err)
		}
		delta, stats, err := w.handle(msg, telemetry.TraceContext{})
		switch {
		case err != nil:
			return err
		case delta != nil:
			if err := send(func() error { return enc.Delta(*delta) }); err != nil {
				return fmt.Errorf("dmatch: worker %d: delta: %w", w.id, err)
			}
			sent++
			if wopts.CrashAfter > 0 && sent >= wopts.CrashAfter {
				conn.Close()
				return ErrInjectedCrash
			}
		case stats != nil:
			js, jerr := json.Marshal(stats)
			if jerr != nil {
				js = []byte("{}")
			}
			return send(func() error { return enc.StatsJSON(js) })
		}
	}
}
