package dmatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dcer/internal/chase"
	"dcer/internal/fnv"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
	"dcer/internal/wire"
)

// worker is the worker half of DMatch — one slot P_i of Section V-B, the
// same whether it runs as a goroutine behind a loopback link or as a
// process behind RunWorker's connection. It holds one chase engine over
// the slot's current fragment.
type worker struct {
	id      int
	d       *relation.Dataset
	rules   []*rule.Rule
	reg     *mlpred.Registry
	idSpace int
	// hooks carries the observability options (Metrics, MetricsLabels,
	// Provenance) every engine of this slot is built with. They never
	// change Γ; a worker process has none.
	hooks chase.Options

	eng *chase.Engine
	// retired sums the work counters of the engines reassignments
	// replaced, so the slot's final Stats cover all the work it did.
	retired chase.Stats
	replay  []chase.Fact // fact history the fresh engine folds on its first Step
	fresh   bool         // eng has not run Deduce yet
}

// handle executes one master message and returns the reply it calls for:
// Assign builds a fresh engine over the fragment (no reply), Step runs the
// superstep — partial evaluation A over a fresh fragment, then the
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
		eng, err := buildWorkerEngine(w.d, w.rules, w.reg, w.id, a.Frag, a.RuleFrags,
			chaseOptsFromWire(a.Opts, w.idSpace, w.hooks))
		if err != nil {
			return nil, nil, err
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

// chaseOptsFromWire is the inverse of wireEngineOpts: the engine options
// of an Assign laid over the slot's observability hooks.
func chaseOptsFromWire(o wire.EngineOpts, idSpace int, hooks chase.Options) chase.Options {
	hooks.MaxDeps = o.MaxDeps
	hooks.ShareIndexes = !o.NoMQO
	hooks.IDSpace = idSpace
	hooks.SequentialDeduce = o.SequentialDeduce
	return hooks
}

// scopeKey fingerprints a sorted id list for scope deduplication with
// 64-bit FNV-1a — no per-id string building. Callers confirm candidate
// hits with sameIDs, so a hash collision costs a duplicate scope dataset,
// never a wrong one.
func scopeKey(ids []relation.TID) uint64 {
	h := uint64(fnv.Offset64)
	h = fnv.Uint64(h, uint64(len(ids)))
	for _, id := range ids {
		h = fnv.Uint64(h, uint64(id))
	}
	return h
}

// sameIDs reports whether two sorted id lists are identical.
func sameIDs(a, b []relation.TID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildWorkerEngine constructs one chase engine over a fragment, with
// each rule scoped to the union of the worker's blocks generated for that
// rule (hypercube semantics: a rule is checked within its own blocks).
// Identical rule scopes are deduplicated so MQO index sharing applies.
func buildWorkerEngine(d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry,
	i int, frag []relation.TID, ruleFrags [][]relation.TID, copts chase.Options) (*chase.Engine, error) {
	fd := d.Fragment(frag)
	scopes := make([]*relation.Dataset, len(rules))
	type scopeEntry struct {
		ids []relation.TID
		sc  *relation.Dataset
	}
	byContent := map[uint64][]scopeEntry{}
	for ri, ids := range ruleFrags {
		if len(ids) == len(frag) {
			scopes[ri] = fd
			continue
		}
		key := scopeKey(ids)
		found := false
		for _, ent := range byContent[key] {
			if sameIDs(ent.ids, ids) {
				scopes[ri] = ent.sc
				found = true
				break
			}
		}
		if found {
			continue
		}
		sc := d.Fragment(ids)
		byContent[key] = append(byContent[key], scopeEntry{ids, sc})
		scopes[ri] = sc
	}
	eng, err := chase.NewScoped(fd, rules, scopes, reg, copts)
	if err != nil {
		return nil, fmt.Errorf("dmatch: worker %d: %w", i, err)
	}
	return eng, nil
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
// master has; the Hello fingerprint proves it.
func RunWorker(addr string, d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry, wopts WorkerOptions) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("dmatch: worker %d: dial %s: %w", wopts.Worker, addr, err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn, wopts.Stats)
	dec := wire.NewDecoder(conn, wopts.Stats)
	w := &worker{id: wopts.Worker, d: d, rules: rules, reg: reg, idSpace: datasetIDSpace(d)}
	err = enc.Hello(wire.Hello{
		Version: wire.Version, Worker: w.id,
		DatasetSize: d.Size(), IDSpace: w.idSpace, Rules: len(rules),
	})
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
