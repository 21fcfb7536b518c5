package dmatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"dcer/internal/chase"
	"dcer/internal/health"
	"dcer/internal/hypart"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
	"dcer/internal/wire"
)

// True multi-process DMatch (ROADMAP item 2): the master and the workers
// are separate OS processes, and the PR-5 outbox layer — per-destination
// batches, recipient bitsets, per-worker dedup seen-sets — feeds the
// compact binary encoding of internal/wire over TCP instead of handing
// slices across goroutines. The BSP state machine is the same masterState
// Run drives (master.go), so the in-process mode stays the equivalence
// oracle: both modes fold worker deltas in worker-index order into the
// same global Γ.
//
// Pipelining: each worker connection gets a dedicated sender goroutine
// owning the connection's Encoder (and its reused frame buffer), so the
// master enqueues all n superstep inboxes and the first workers start
// computing while later inboxes are still being encoded and flushed.
//
// Recovery: worker death is detected by connection error (the reader
// goroutine sees EOF/reset) or by heartbeat timeout (workers Pong on an
// interval; a silent-but-connected worker gets its connection closed,
// which surfaces as a reader error). The dead worker's virtual blocks are
// reassigned to the least-loaded survivors (LPT over block sizes), the
// recipients are rebuilt over the wire — MsgAssign with the new fragment
// and the routed fact history to replay — and the fixpoint continues.
// Because facts are idempotent and the fixpoint is unique, Γ is unchanged
// by a recovery, exactly as with the skew-adaptive migrations.

// DistOptions configures the process-level side of a distributed run;
// everything Γ-relevant stays in Options.
type DistOptions struct {
	// Listen is the TCP address the master binds; "" means 127.0.0.1:0
	// (an ephemeral local port).
	Listen string
	// Spawn starts worker i pointed at the master's address. The CLI
	// re-executes its own binary with -worker; tests dial in-process
	// goroutines. Spawn must not block on the worker's lifetime.
	Spawn func(worker int, addr string) error
	// HeartbeatTimeout is how long a worker may stay silent (no frame, no
	// Pong) before the master declares it dead; 0 means 10s.
	HeartbeatTimeout time.Duration
	// AcceptTimeout bounds the handshake phase; 0 means 30s.
	AcceptTimeout time.Duration
}

// RecoveryEvent describes one worker-failure recovery.
type RecoveryEvent struct {
	// Step is the superstep after which the recovery ran.
	Step int
	// Worker is the dead worker's slot (retired; slots are never reused).
	Worker int
	// BlocksMoved is how many of the dead worker's virtual blocks were
	// reassigned; WorkersRebuilt is how many survivors got new fragments.
	BlocksMoved    int
	WorkersRebuilt int
	// RebuildNs is the master-side cost: reassignment, host-bitset
	// rebuild, and replay preparation (the rebuilt engines are remote).
	RebuildNs int64
}

const (
	defaultHeartbeatTimeout = 10 * time.Second
	defaultAcceptTimeout    = 30 * time.Second
)

// ErrInjectedCrash is returned by RunWorker when WorkerOptions.CrashAfter
// triggers — the fault-injection hook the recovery tests and the CI smoke
// use. The CLI maps it to a distinct exit code.
var ErrInjectedCrash = errors.New("dmatch: injected worker crash")

// wireEngineOpts projects the Γ-relevant engine knobs onto the wire form.
// Sequential folds into the per-engine flags here, exactly as
// workerChaseOptions does for the in-process path.
func wireEngineOpts(opts Options) wire.EngineOpts {
	return wire.EngineOpts{
		NoMQO:              opts.NoMQO,
		SequentialDeduce:   opts.Sequential || opts.SequentialDeduce,
		SequentialDrain:    opts.Sequential || opts.SequentialDrain,
		InterpretRules:     opts.InterpretRules,
		MaxDeps:            opts.MaxDeps,
		DrainParallelMin:   opts.DrainParallelMin,
		PlanResortMinEvals: opts.PlanResortMinEvals,
	}
}

// chaseOptsFromWire is the worker-side inverse. workerChaseOptions
// (master.go) is defined as the composition of these two functions, so
// the in-process engines and the worker-process engines are constructed
// from identical chase.Options by construction — the heart of the Γ
// byte-identity contract.
func chaseOptsFromWire(o wire.EngineOpts, idSpace int) chase.Options {
	return chase.Options{
		MaxDeps:            o.MaxDeps,
		ShareIndexes:       !o.NoMQO,
		IDSpace:            idSpace,
		SequentialDeduce:   o.SequentialDeduce,
		SequentialDrain:    o.SequentialDrain,
		DrainParallelMin:   o.DrainParallelMin,
		InterpretRules:     o.InterpretRules,
		PlanResortMinEvals: o.PlanResortMinEvals,
	}
}

// distEvent is one inbound occurrence on a worker connection: a decoded
// delta, the final stats blob, or a terminal error (death).
type distEvent struct {
	w     int
	delta *wire.Delta
	stats []byte
	err   error
}

// remoteWorker is the master's handle on one worker process: the
// connection, the outbound pipeline (a sender goroutine owning the
// Encoder), and liveness state. alive is owned by the master loop.
type remoteWorker struct {
	id       int
	conn     net.Conn
	sendCh   chan func(*wire.Encoder) error
	closed   atomic.Bool
	lastBeat atomic.Int64 // UnixNano of the last inbound frame
	alive    bool
}

func (rw *remoteWorker) close() {
	if rw.closed.CompareAndSwap(false, true) {
		rw.conn.Close()
	}
}

// sender drains the outbound pipeline, encoding and flushing each message
// on this connection's Encoder (and its reused frame buffer). On a write
// error it reports death once and keeps draining so the master never
// blocks enqueueing to a dead worker.
func (rw *remoteWorker) sender(enc *wire.Encoder, events chan<- distEvent) {
	for f := range rw.sendCh {
		if f == nil {
			continue
		}
		if err := f(enc); err != nil {
			events <- distEvent{w: rw.id, err: fmt.Errorf("send: %w", err)}
			for range rw.sendCh {
			}
			return
		}
	}
}

// reader decodes inbound frames until the connection dies, forwarding
// deltas and stats to the master loop and stamping liveness.
func (rw *remoteWorker) reader(dec *wire.Decoder, events chan<- distEvent) {
	for {
		msg, err := dec.Next()
		if err != nil {
			events <- distEvent{w: rw.id, err: err}
			return
		}
		rw.lastBeat.Store(time.Now().UnixNano())
		switch msg.Type {
		case wire.MsgPong:
			// liveness only
		case wire.MsgDelta:
			d := msg.Delta
			events <- distEvent{w: rw.id, delta: &d}
		case wire.MsgStats:
			events <- distEvent{w: rw.id, stats: msg.StatsJSON}
		default:
			events <- distEvent{w: rw.id, err: fmt.Errorf("dmatch: unexpected %d frame from worker", msg.Type)}
			return
		}
	}
}

// recoverAssign moves every block of the dead workers to the least-loaded
// survivor (LPT greedy over block sizes, largest orphan first), leaving
// all other assignments untouched — an incremental reassignment rather
// than a global re-run, so surviving workers that host none of the
// orphaned blocks keep their engines.
func recoverAssign(blocks []hypart.Block, assign []int, dead map[int]bool, alive []bool) ([]int, int) {
	next := append([]int(nil), assign...)
	load := make([]float64, len(alive))
	var orphans []int
	for b := range blocks {
		if dead[assign[b]] {
			orphans = append(orphans, b)
		} else {
			load[assign[b]] += float64(len(blocks[b].GIDs))
		}
	}
	sort.Slice(orphans, func(i, j int) bool {
		bi, bj := orphans[i], orphans[j]
		if len(blocks[bi].GIDs) != len(blocks[bj].GIDs) {
			return len(blocks[bi].GIDs) > len(blocks[bj].GIDs)
		}
		return bi < bj
	})
	for _, b := range orphans {
		best := -1
		for w := range alive {
			if alive[w] && (best < 0 || load[w] < load[best]) {
				best = w
			}
		}
		next[b] = best
		load[best] += float64(len(blocks[b].GIDs))
	}
	return next, len(orphans)
}

// RunDistributed partitions d with HyPart and executes the BSP fixpoint
// with n worker processes over TCP. Every worker loads the same dataset
// and rules from disk (loading is deterministic) and proves it via the
// Hello fingerprint; the master aborts on mismatch rather than computing
// a wrong Γ over divergent inputs. The returned Result is byte-identical
// in Γ (Matches, Validated, Eq) to Run with the same Options.
func RunDistributed(d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry, opts Options, dopts DistOptions) (*Result, error) {
	n := opts.Workers
	if n < 1 {
		return nil, errors.New("dmatch: distributed mode needs an explicit worker count")
	}
	if opts.Provenance {
		return nil, errors.New("dmatch: provenance capture is not supported in distributed mode")
	}
	if dopts.Spawn == nil {
		return nil, errors.New("dmatch: DistOptions.Spawn is required")
	}
	maxSteps := opts.MaxSupersteps
	if maxSteps <= 0 {
		maxSteps = 1 << 20
	}
	hbTimeout := dopts.HeartbeatTimeout
	if hbTimeout <= 0 {
		hbTimeout = defaultHeartbeatTimeout
	}
	acceptTO := dopts.AcceptTimeout
	if acceptTO <= 0 {
		acceptTO = defaultAcceptTimeout
	}
	listen := dopts.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	stats := &wire.Stats{}

	// Listen and spawn first: the workers' exec and dataset load overlap
	// the master's HyPart pass, and each worker's Hello waits in the
	// accept backlog until the handshake below. From here on every return
	// closes the listener, so a worker whose master gave up sees EOF (or a
	// refused dial) and exits instead of waiting for an assignment.
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("dmatch: listen: %w", err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	for i := 0; i < n; i++ {
		if err := dopts.Spawn(i, addr); err != nil {
			return nil, fmt.Errorf("dmatch: spawn worker %d: %w", i, err)
		}
	}

	t0 := time.Now()
	part, err := hypart.Partition(d, rules, n, hypart.Options{
		Share:          !opts.NoMQO,
		ReplicationCap: opts.ReplicationCap,
		Shards:         opts.PartitionShards,
		Metrics:        opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{PartitionStats: part.Stats, d: d}
	tb := time.Now()
	res.PartitionTime = tb.Sub(t0)
	ms := newMasterState(d, n)
	ms.setHosts(part.Fragments)

	remotes := make([]*remoteWorker, n)
	events := make(chan distEvent, 4*n+8)
	closeAll := func() {
		for _, rw := range remotes {
			if rw != nil {
				rw.close()
				close(rw.sendCh)
			}
		}
	}

	// Handshake: accept n connections and validate each Hello against the
	// master's own view of the inputs.
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(acceptTO))
	for got := 0; got < n; got++ {
		conn, err := ln.Accept()
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("dmatch: accepting workers (%d/%d connected): %w", got, n, err)
		}
		conn.SetReadDeadline(time.Now().Add(acceptTO))
		dec := wire.NewDecoder(conn, stats)
		msg, err := dec.Next()
		if err != nil || msg.Type != wire.MsgHello {
			conn.Close()
			closeAll()
			return nil, fmt.Errorf("dmatch: bad handshake: %v", err)
		}
		h := msg.Hello
		switch {
		case h.Version != wire.Version:
			err = fmt.Errorf("protocol version %d, want %d", h.Version, wire.Version)
		case h.Worker < 0 || h.Worker >= n:
			err = fmt.Errorf("worker id %d out of range [0,%d)", h.Worker, n)
		case remotes[h.Worker] != nil:
			err = fmt.Errorf("duplicate worker id %d", h.Worker)
		case h.DatasetSize != d.Size() || h.IDSpace != ms.idSpace || h.Rules != len(rules):
			err = fmt.Errorf("dataset fingerprint mismatch: worker has (size=%d idspace=%d rules=%d), master has (%d %d %d)",
				h.DatasetSize, h.IDSpace, h.Rules, d.Size(), ms.idSpace, len(rules))
		}
		if err != nil {
			conn.Close()
			closeAll()
			return nil, fmt.Errorf("dmatch: worker handshake: %w", err)
		}
		conn.SetReadDeadline(time.Time{})
		rw := &remoteWorker{id: h.Worker, conn: conn, sendCh: make(chan func(*wire.Encoder) error, 4), alive: true}
		rw.lastBeat.Store(time.Now().UnixNano())
		remotes[h.Worker] = rw
		go rw.sender(wire.NewEncoder(conn, stats), events)
		go rw.reader(dec, events)
	}
	defer closeAll()

	eopts := wireEngineOpts(opts)
	for i, rw := range remotes {
		a := wire.Assign{Worker: i, Workers: n, Opts: eopts,
			Frag: part.Fragments[i], RuleFrags: part.RuleFragments[i]}
		rw.sendCh <- func(e *wire.Encoder) error { return e.Assign(a) }
	}

	t1 := time.Now()
	res.BuildTime = t1.Sub(tb)
	curAssign := make([]int, len(part.Blocks))
	for i := range part.Blocks {
		curAssign[i] = part.Blocks[i].Worker
	}

	tl := &res.timeline
	tl.Workers = n
	inboxes := make([][]chase.Fact, n)
	deltas := make([][]chase.Fact, n)
	elapsed := make([]time.Duration, n)
	// fresh[w]: an Assign is in flight and w must re-Deduce on its next
	// Step; the termination check waits for fresh workers even with every
	// inbox empty (their full pass may still produce facts).
	fresh := make([]bool, n)
	for i := range fresh {
		fresh[i] = true
	}
	aliveCount := n
	msgsIn := make([]int, n)
	factsOut := make([]int, n)

	var dhb *health.Heartbeat
	var aliveCheck *health.Check
	if opts.Health != nil {
		dhb = opts.Health.Heartbeat("dmatch_superstep")
		aliveCheck = opts.Health.Check("dist_workers")
		dhb.Enter()
		defer dhb.Exit()
	}

	hbTick := time.NewTicker(hbTimeout / 4)
	defer hbTick.Stop()

	markDead := func(w int, cause error) error {
		rw := remotes[w]
		if !rw.alive {
			return nil
		}
		rw.alive = false
		rw.close()
		aliveCount--
		aliveCheck.Fail(1, "worker %d died: %v", w, cause)
		if aliveCount == 0 {
			return fmt.Errorf("dmatch: all %d workers died (last: worker %d: %v)", n, w, cause)
		}
		return nil
	}

	var deadPending []int
	for step := 0; step < maxSteps; step++ {
		dhb.Beat()
		stepWall := time.Now()
		wireBase := stats.BytesOut.Load() + stats.BytesIn.Load()
		// Dispatch: enqueue every alive worker's inbox. The senders encode
		// and flush concurrently, so worker i can be deep in Deduce while
		// the master is still flushing worker j's (larger) inbox.
		expected := make(map[int]bool, aliveCount)
		for i, rw := range remotes {
			if !rw.alive {
				msgsIn[i] = 0
				continue
			}
			msgsIn[i] = len(inboxes[i])
			st := wire.Step{Step: step, Facts: inboxes[i]}
			rw.sendCh <- func(e *wire.Encoder) error { return e.Step(st) }
			expected[i] = true
			fresh[i] = false
		}
		for i := range deltas {
			deltas[i], elapsed[i] = nil, 0
		}
		// Collect: one Delta per expected worker, or its death. A silent
		// worker past the heartbeat timeout has its connection closed,
		// which surfaces as a reader error on the next tick.
		for len(expected) > 0 {
			select {
			case ev := <-events:
				switch {
				case ev.err != nil:
					// A dead worker always enters deadPending — even when
					// its delta for this step already arrived (a crash just
					// after sending) — so its blocks are reassigned before
					// any future routing would silently drop facts.
					if remotes[ev.w].alive {
						if err := markDead(ev.w, ev.err); err != nil {
							return nil, err
						}
						deadPending = append(deadPending, ev.w)
					}
					delete(expected, ev.w)
				case ev.delta != nil && expected[ev.w]:
					if ev.delta.Step != step {
						if err := markDead(ev.w, fmt.Errorf("delta for step %d during step %d", ev.delta.Step, step)); err != nil {
							return nil, err
						}
						deadPending = append(deadPending, ev.w)
						delete(expected, ev.w)
						continue
					}
					deltas[ev.w] = ev.delta.Facts
					elapsed[ev.w] = time.Duration(ev.delta.BusyNs)
					delete(expected, ev.w)
				}
			case <-hbTick.C:
				now := time.Now().UnixNano()
				for w := range expected {
					if now-remotes[w].lastBeat.Load() > int64(hbTimeout) {
						remotes[w].close() // reader unblocks with an error
					}
				}
			}
		}
		res.Supersteps++
		var stepMax time.Duration
		for _, e := range elapsed {
			if e > stepMax {
				stepMax = e
			}
		}
		res.SimulatedTime += stepMax

		// Master phase 1+2: identical fold and routing to Run, on the same
		// masterState. Dead workers contribute nil deltas and get no inbox.
		routeStart := time.Now()
		ms.beginFold()
		var stepFacts int64
		for w, delta := range deltas {
			stepFacts += int64(len(delta))
			res.FactsProduced += int64(len(delta))
			ms.foldDelta(w, delta, res)
		}
		next := make([][]chase.Fact, n)
		var routedStep, dedupedStep int64
		for h := 0; h < n; h++ {
			if !remotes[h].alive {
				continue
			}
			out, routed, deduped := ms.buildDest(h, deltas[h])
			next[h] = out
			routedStep += routed
			dedupedStep += deduped
		}
		res.MessagesRouted += routedStep
		res.MessagesDeduped += dedupedStep
		inboxes = next
		routeNs := int64(time.Since(routeStart))
		for i, dl := range deltas {
			factsOut[i] = len(dl)
		}
		wireStep := stats.BytesOut.Load() + stats.BytesIn.Load() - wireBase
		tl.record(step, elapsed, factsOut, msgsIn, routeNs, int64(time.Since(stepWall)), wireStep, routedStep, dedupedStep)

		// Recovery: reassign every dead worker's blocks to the least-
		// loaded survivors and rebuild the recipients over the wire. The
		// replay (every match plus the validated facts a recipient hosts)
		// supersedes any inbox already built for a recipient.
		if len(deadPending) > 0 {
			rt0 := time.Now()
			dead := make(map[int]bool, len(deadPending))
			for _, w := range deadPending {
				dead[w] = true
			}
			orphansOf := make(map[int]int, len(deadPending))
			for b := range curAssign {
				if dead[curAssign[b]] {
					orphansOf[curAssign[b]]++
				}
			}
			alive := make([]bool, n)
			for w, rw := range remotes {
				alive[w] = rw.alive
			}
			newAssign, _ := recoverAssign(part.Blocks, curAssign, dead, alive)
			changed := make([]bool, n)
			for b := range newAssign {
				if newAssign[b] != curAssign[b] {
					changed[newAssign[b]] = true
				}
			}
			frags, ruleFrags := hypart.BuildFragments(part.Blocks, newAssign, n, len(rules))
			ms.setHosts(frags)
			curAssign = newAssign
			rebuilt := 0
			for w, rw := range remotes {
				if !rw.alive || !changed[w] {
					continue
				}
				replay := ms.replayFor(w, res)
				ms.resetWorker(w, replay)
				inboxes[w] = nil
				a := wire.Assign{Worker: w, Workers: n, Opts: eopts,
					Frag: frags[w], RuleFrags: ruleFrags[w], Replay: replay}
				rw.sendCh <- func(e *wire.Encoder) error { return e.Assign(a) }
				fresh[w] = true
				rebuilt++
			}
			rebuildNs := int64(time.Since(rt0))
			for _, w := range deadPending {
				inboxes[w] = nil
				res.Recoveries = append(res.Recoveries, RecoveryEvent{
					Step: step, Worker: w, BlocksMoved: orphansOf[w],
					WorkersRebuilt: rebuilt, RebuildNs: rebuildNs,
				})
			}
			deadPending = deadPending[:0]
		}

		if opts.Log.Level() <= telemetry.LogDebug {
			opts.Log.Wide(telemetry.LogDebug, "dmatch_superstep",
				telemetry.F{K: "step", V: step},
				telemetry.F{K: "workers", V: aliveCount},
				telemetry.F{K: "makespan_ns", V: int64(stepMax)},
				telemetry.F{K: "facts", V: stepFacts},
				telemetry.F{K: "routed", V: routedStep},
				telemetry.F{K: "deduped", V: dedupedStep},
				telemetry.F{K: "wire_bytes", V: wireStep},
				telemetry.F{K: "recoveries", V: len(res.Recoveries)},
				telemetry.F{K: "distributed", V: true},
			)
		}

		empty := true
		for i, rw := range remotes {
			if rw.alive && (len(inboxes[i]) > 0 || fresh[i]) {
				empty = false
				break
			}
		}
		if empty {
			break
		}
	}

	// Shutdown: Done to every survivor, collect each final stats blob
	// (workers reply MsgStats and exit; the subsequent EOF is expected).
	workerStats := make([]chase.Stats, n)
	pendingStats := 0
	for _, rw := range remotes {
		if !rw.alive {
			continue
		}
		rw.sendCh <- func(e *wire.Encoder) error { return e.Done() }
		pendingStats++
	}
	statsDone := make([]bool, n)
	statsDeadline := time.After(hbTimeout)
	for pendingStats > 0 {
		select {
		case ev := <-events:
			if statsDone[ev.w] || !remotes[ev.w].alive {
				continue
			}
			switch {
			case ev.stats != nil:
				statsDone[ev.w] = true
				pendingStats--
				json.Unmarshal(ev.stats, &workerStats[ev.w])
			case ev.err != nil:
				// died before delivering stats; not worth failing the run
				statsDone[ev.w] = true
				pendingStats--
				remotes[ev.w].alive = false
				remotes[ev.w].close()
			}
		case <-statsDeadline:
			pendingStats = 0
		}
	}
	res.WorkerStats = workerStats
	res.ERTime = time.Since(t1)
	res.Eq = ms.guf
	res.Wire = stats.Snapshot()
	if mreg := opts.Metrics; mreg != nil {
		snap := res.Wire
		mreg.Counter("dcer_wire_bytes_out").Add(snap.BytesOut)
		mreg.Counter("dcer_wire_bytes_in").Add(snap.BytesIn)
		mreg.Counter("dcer_wire_frames_out").Add(snap.FramesOut)
		mreg.Counter("dcer_wire_frames_in").Add(snap.FramesIn)
		mreg.Counter("dcer_wire_encode_ns").Add(snap.EncodeNs)
		mreg.Counter("dcer_wire_decode_ns").Add(snap.DecodeNs)
		mreg.Counter("dcer_wire_dict_strings").Add(snap.DictStrings)
	}
	return res, nil
}
