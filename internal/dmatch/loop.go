package dmatch

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dcer/internal/chase"
	"dcer/internal/health"
	"dcer/internal/hypart"
	"dcer/internal/provenance"
	"dcer/internal/telemetry"
	"dcer/internal/wire"
)

// ErrSuperstepLimit is returned when Options.MaxSupersteps ran out with
// work still pending: the Γ folded so far is a strict subset of the
// fixpoint, so no Result is returned with it.
var ErrSuperstepLimit = errors.New("dmatch: superstep limit reached before the fixpoint")

func (ms *masterState) alive(w int) bool { return ms.links[w] != nil }

// drop closes worker w's link, if it is still open, and retires the slot.
func (ms *masterState) drop(w int) {
	if l := ms.links[w]; l != nil {
		l.close()
		ms.links[w] = nil
		ms.live--
	}
}

// workPending reports whether another superstep is needed: a live worker
// has an inbox to fold or a fresh fragment to evaluate.
func (ms *masterState) workPending() bool {
	for w := range ms.links {
		if ms.alive(w) && (len(ms.inboxes[w]) > 0 || ms.pending[w] != nil) {
			return true
		}
	}
	return false
}

// reassign moves the virtual blocks to the assignment next and leaves
// every live worker whose block set changed with an Assign pending: its
// new fragment plus the fact history to replay, its delivery record reset
// to that history. Rebuilt workers re-run Deduce over their new fragments
// and replay the history through IncDeduce; facts are idempotent and the
// fixpoint is unique, so Γ is unchanged — only the schedule moves. Both
// triggers end here: the rebalancer's skew test and a dead link.
func (ms *masterState) reassign(next []int, res *Result) (rebuilt int) {
	changed := make([]bool, ms.n)
	for b, w := range next {
		if w != ms.assign[b] {
			changed[w], changed[ms.assign[b]] = true, true
		}
	}
	frags, ruleFrags := hypart.BuildFragments(ms.blocks, next, ms.n, ms.nRules)
	ms.setHosts(frags)
	ms.assign = next
	for w := range changed {
		if !changed[w] || !ms.alive(w) {
			continue
		}
		// The replay supersedes any inbox already built for w.
		replay := ms.replayFor(w, res)
		ms.inboxes[w] = nil
		ms.pending[w] = &wire.Assign{Worker: w, Workers: ms.n, Opts: ms.eopts,
			Frag: frags[w], RuleFrags: ruleFrags[w], Replay: replay}
		rebuilt++
	}
	return rebuilt
}

// fixpoint runs the BSP supersteps of Section III-B over ms.links until no
// worker has anything left to fold: dispatch each pending Assign and each
// non-empty inbox, collect one Delta per dispatched Step (or the worker's
// death), fold the deltas into the global Γ in worker-index order, route
// the new facts into the next inboxes, and reassign blocks when a worker
// died or the step was skewed.
func (ms *masterState) fixpoint(opts Options, rtc telemetry.TraceContext, res *Result, provLogs []*provenance.Log) error {
	n := ms.n
	maxSteps := opts.MaxSupersteps
	if maxSteps <= 0 {
		maxSteps = 1 << 20
	}

	// BSP instruments. Every instrument is a no-op when opts.Metrics is
	// nil (nil-safe telemetry handles), so the loop below reads the same
	// either way; the superstep timeline itself is recorded
	// unconditionally (its cost is bounded by supersteps × workers).
	tl := &res.timeline
	tl.Workers = n
	var tlMu sync.Mutex
	mreg := opts.Metrics
	logg := mreg.Logger()
	makespanGauge := mreg.Gauge("dcer_dmatch_step_makespan_ns")
	skewGauge := mreg.Gauge("dcer_dmatch_step_skew")
	routedCtr := mreg.Counter("dcer_dmatch_messages_routed")
	dedupCtr := mreg.Counter("dcer_dmatch_messages_deduped")
	factsCtr := mreg.Counter("dcer_dmatch_facts_produced")
	busyHists := make([]*telemetry.Histogram, n)
	for i := range busyHists {
		busyHists[i] = mreg.Histogram("dcer_dmatch_worker_busy_ns", telemetry.L("worker", strconv.Itoa(i)))
	}
	mreg.SetDebug("dmatch_timeline", func() any {
		tlMu.Lock()
		defer tlMu.Unlock()
		return Timeline{Workers: tl.Workers, Steps: append([]Superstep(nil), tl.Steps...)}
	})
	if provLogs != nil {
		mreg.SetDebug("provenance", func() any { return provenance.Summarize(provLogs...) })
	}
	mreg.SetDebug("dmatch_rebalance", func() any {
		tlMu.Lock()
		defer tlMu.Unlock()
		return append([]RebalanceEvent(nil), res.Rebalances...)
	})

	// Health wiring: the superstep heartbeat brackets the whole loop, and
	// the master's sequential fold phase audits the global union-find and
	// feeds the accuracy observatory (nil-safe no-ops without a monitor).
	mon := health.Of(mreg)
	dhb := mon.Heartbeat("dmatch_superstep")
	gufCheck := mon.Check("global_unionfind")
	dhb.Enter()
	defer dhb.Exit()
	accSeen := 0

	rb := newRebalancer(opts, n, len(ms.blocks))
	deltas := make([][]chase.Fact, n)
	elapsed := make([]time.Duration, n)
	msgsIn := make([]int, n)
	factsOut := make([]int, n)
	waiting := make([]bool, n) // a Step is out and its Delta is not in yet
	owed := 0                  // how many are waiting
	var dead []int             // died since the last reassignment

	// collect takes events until every waiting worker has answered the
	// Step of superstep step, with its Delta or by dying, and no event is
	// left queued. A dead worker enters dead even when its delta for this
	// step already arrived (a crash just after sending); should its death
	// surface only during the next superstep, what was routed to it in
	// between is not lost — the survivors' replay is the whole history.
	collect := func(step int) error {
		for owed > 0 || len(ms.events) > 0 {
			ev := <-ms.events
			if ev.delta != nil && ev.delta.Step != step {
				ev.err = fmt.Errorf("delta for step %d during step %d", ev.delta.Step, step)
			}
			switch {
			case !ms.alive(ev.w):
				continue
			case ev.err != nil:
				ms.drop(ev.w)
				mon.Check("dist_workers").Fail(1, "worker %d died: %v", ev.w, ev.err)
				if ms.live == 0 {
					return fmt.Errorf("dmatch: all %d workers died (last: worker %d: %w)", n, ev.w, ev.err)
				}
				dead = append(dead, ev.w)
			case ev.delta != nil && waiting[ev.w]:
				deltas[ev.w], elapsed[ev.w] = ev.delta.Facts, time.Duration(ev.delta.BusyNs)
			default:
				continue
			}
			if waiting[ev.w] {
				waiting[ev.w] = false
				owed--
			}
		}
		return nil
	}

	for step := 0; step < maxSteps; step++ {
		dhb.Beat()
		stepWall := time.Now()
		wireBase := ms.wire.BytesOut.Load() + ms.wire.BytesIn.Load()
		ssp := rtc.Start("dmatch.superstep", telemetry.L("step", strconv.Itoa(step)))
		stc := ssp.Context()

		// Dispatch: every pending Assign, then a Step to every worker with
		// something to fold. The links take messages without waiting, so
		// worker i can be deep in Deduce while worker j's (larger) inbox is
		// still on its way; a worker with nothing new is left alone.
		// Options.Sequential waits for each worker before starting the
		// next.
		for i, l := range ms.links {
			deltas[i], elapsed[i], msgsIn[i] = nil, 0, 0
			if a := ms.pending[i]; l != nil && a != nil {
				msgsIn[i] = len(a.Replay)
				l.send(wire.Msg{Type: wire.MsgAssign, Assign: *a}, stc)
			}
		}
		for i, l := range ms.links {
			if l == nil || (ms.pending[i] == nil && len(ms.inboxes[i]) == 0) {
				continue
			}
			ms.pending[i] = nil
			msgsIn[i] += len(ms.inboxes[i])
			l.send(wire.Msg{Type: wire.MsgStep, Step: wire.Step{Step: step, Facts: ms.inboxes[i]}}, stc)
			waiting[i] = true
			owed++
			if opts.Sequential {
				if err := collect(step); err != nil {
					return err
				}
			}
		}
		if err := collect(step); err != nil {
			return err
		}
		res.Supersteps++
		var stepMax time.Duration
		for i, e := range elapsed {
			stepMax = max(stepMax, e)
			busyHists[i].Observe(uint64(e))
		}
		makespanGauge.Set(float64(stepMax))

		routeStart := time.Now()
		rsp := stc.Start("dmatch.route")
		// Master, phase 1 (sequential): fold the union of the workers'
		// new facts into the global Γ and compute each fact's recipient
		// bitset — the workers hosting any member of the classes the fact
		// touches (the ΔΓ_i of the fixpoint equations). Fold order is
		// worker-index order; the deterministic Γ depends on it.
		ms.routes, ms.arena = ms.routes[:0], ms.arena[:0]
		var stepFacts int64
		for w, delta := range deltas {
			stepFacts += int64(len(delta))
			factsOut[w] = len(delta)
			ms.foldDelta(w, delta, res)
		}
		res.FactsProduced += stepFacts
		if mon != nil {
			// Still in the sequential master phase: guf is quiescent, so
			// the sampled chain audit needs no locks; Find's path
			// compression is the master's own mutation, as in the fold.
			sample := health.SampleIDs(ms.guf.Len(), mon.SampleSize(), mon.Seed()+int64(step))
			if err := health.AuditUnionFind(ms.guf, sample); err != nil {
				gufCheck.Fail(len(sample), "superstep %d: %v", step, err)
			} else {
				gufCheck.Pass(len(sample))
			}
			if acc := mon.Accuracy(); acc != nil {
				accSeen = observeMasterAccuracy(acc, res.Matches, accSeen, provLogs, ms.guf)
			}
		}
		// Master, phase 2: per-destination inbox builders, concurrent
		// unless Sequential or there is nothing to route. Each builder
		// owns its destination's inbox, seen-set, and counters, so the
		// fan-out is race-free and the built batches are identical to a
		// sequential build. Dead workers get no inbox.
		var routedStep, dedupedStep atomic.Int64
		var wg sync.WaitGroup
		buildDest := func(h int) {
			defer wg.Done()
			isp := rsp.Context().Lane(telemetry.PIDDMatch, int32(h+1)).Start("dmatch.inbox")
			defer isp.End()
			inbox, routed, deduped := ms.buildDest(h, deltas[h])
			ms.inboxes[h] = inbox
			routedStep.Add(routed)
			dedupedStep.Add(deduped)
		}
		for h := 0; h < n; h++ {
			ms.inboxes[h] = nil
			if !ms.alive(h) {
				continue
			}
			wg.Add(1)
			if opts.Sequential || len(ms.routes) == 0 {
				buildDest(h)
			} else {
				go buildDest(h)
			}
		}
		wg.Wait()
		routed, deduped := routedStep.Load(), dedupedStep.Load()
		res.MessagesRouted += routed
		res.MessagesDeduped += deduped
		rsp.End()
		routeNs := int64(time.Since(routeStart))
		routedCtr.Add(routed)
		dedupCtr.Add(deduped)
		factsCtr.Add(stepFacts)
		wireStep := ms.wire.BytesOut.Load() + ms.wire.BytesIn.Load() - wireBase
		tlMu.Lock()
		tl.record(step, elapsed, factsOut, msgsIn, routeNs, int64(time.Since(stepWall)), wireStep, routed, deduped)
		skew := tl.Steps[len(tl.Steps)-1].SkewRatio
		if k := len(res.Rebalances); k > 0 && res.Rebalances[k-1].Step == step-1 {
			res.Rebalances[k-1].SkewAfter = skew
		}
		tlMu.Unlock()
		skewGauge.Set(skew)
		if logg.Level() <= telemetry.LogDebug {
			logg.Wide(telemetry.LogDebug, "dmatch_superstep",
				telemetry.F{K: "step", V: step},
				telemetry.F{K: "workers", V: ms.live},
				telemetry.F{K: "makespan_ns", V: int64(stepMax)},
				telemetry.F{K: "skew", V: skew},
				telemetry.F{K: "facts", V: stepFacts},
				telemetry.F{K: "routed", V: routed},
				telemetry.F{K: "deduped", V: deduped},
				telemetry.F{K: "route_ns", V: routeNs},
				telemetry.F{K: "wire_bytes", V: wireStep},
				telemetry.F{K: "rebalances", V: len(res.Rebalances)},
				telemetry.F{K: "recoveries", V: len(res.Recoveries)},
				telemetry.F{K: "sequential", V: opts.Sequential},
			)
		}
		ssp.End()

		// Reassign-and-replay, on either trigger. A death hands the dead
		// workers' blocks to the least-loaded survivors at once; otherwise,
		// with work still pending and this superstep over the skew
		// threshold, LPT re-runs over the blocks' observed costs.
		t0 := time.Now()
		if len(dead) > 0 {
			sp := rtc.Start("dmatch.reassign", telemetry.L("step", strconv.Itoa(step)), telemetry.L("cause", "death"))
			orphans := make([]int, n)
			for _, w := range ms.assign {
				orphans[w]++
			}
			next, _ := balance(ms.blocks, ms.assign, make([]time.Duration, n), ms.alive)
			rebuilt := ms.reassign(next, res)
			for _, w := range dead {
				res.Recoveries = append(res.Recoveries, RecoveryEvent{
					Step: step, Worker: w, BlocksMoved: orphans[w],
					WorkersRebuilt: rebuilt, RebuildNs: int64(time.Since(t0)),
				})
			}
			dead = dead[:0]
			sp.End()
		} else if ms.workPending() && rb.shouldRebalance(skew, stepMax) {
			sp := rtc.Start("dmatch.reassign", telemetry.L("step", strconv.Itoa(step)), telemetry.L("cause", "skew"))
			if next, moved := balance(ms.blocks, ms.assign, elapsed, ms.alive); moved > 0 {
				ev := RebalanceEvent{Step: step, BlocksMoved: moved, SkewBefore: skew}
				ev.WorkersRebuilt = ms.reassign(next, res)
				ev.RebuildNs = int64(time.Since(t0))
				tlMu.Lock()
				res.Rebalances = append(res.Rebalances, ev)
				tlMu.Unlock()
			}
			sp.End()
		}
		if !ms.workPending() {
			return nil
		}
	}
	return fmt.Errorf("%w (MaxSupersteps = %d)", ErrSuperstepLimit, maxSteps)
}

// shutdown sends Done to every live worker and collects each one's final
// stats; a worker that dies instead leaves its slot's stats zero, which is
// not worth failing a finished run for.
func (ms *masterState) shutdown() []chase.Stats {
	stats := make([]chase.Stats, ms.n)
	for _, l := range ms.links {
		if l != nil {
			l.send(wire.Msg{Type: wire.MsgDone}, telemetry.TraceContext{})
		}
	}
	for ms.live > 0 {
		ev := <-ms.events
		if !ms.alive(ev.w) || (ev.stats == nil && ev.err == nil) {
			continue
		}
		if ev.stats != nil {
			stats[ev.w] = *ev.stats
		}
		ms.drop(ev.w)
	}
	return stats
}
