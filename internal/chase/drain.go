package chase

// The update-driven drain loop of algorithm Match: every drain round
// re-inspects the valuations involving the round's new facts. It subsumes
// the paper's dependency store H: a valuation the seed pass dropped for an
// id or ML literal not yet in Γ is one the fact that validates the literal
// re-seeds. This file batches each round's event queue into
// explicit re-enumeration jobs and runs a batch either on the engine's live
// context or, split into contiguous chunks, as tasks of the engine's pool
// (pool.go), the same one the seed pass of Deduce and InsertTuples runs
// on. The final Γ is identical to the sequential drain by the
// Church-Rosser property.
//
// Which of the two a batch takes is the engine's to work out (runJobs), not
// an option: measured on the repository benchmark the fan-out is worth
// about 7 % of e2e_s to DMatch's in-process workers, which drain while
// their peers idle at the barrier, and nothing to a lone engine (DESIGN.md
// §7).

import (
	"math"
	"runtime"
	"strconv"

	"dcer/internal/rule"
	"dcer/internal/telemetry"

	"dcer/internal/relation"
)

// drainParallelMin is the smallest batch that fans out over the pool:
// the fan-out overhead (root snapshot, buffered merge) only pays off on
// bulk batches like the event floods behind IncDeduce.
const drainParallelMin = 16

// minDrainJobsPerWorker is the smallest job chunk worth a pool task of its
// own; batches fan out over at most ceil(jobs/minDrainJobsPerWorker) tasks.
const minDrainJobsPerWorker = 8

// drainBatchCap bounds how many jobs a drain round materializes at once.
// Merging two large classes expands |Ca|·|Cb| cross pairs per id predicate;
// the sequential loop visited them in O(1) space, so the batched path must
// not hold them all either — it flushes full batches (in event order)
// before expanding further.
const drainBatchCap = 1 << 15

// drainJob is one seeded re-enumeration: rule br restarted with the
// seeding predicate p's variables bound to tuples tx and ty. Scope and
// relation compatibility are checked at expansion time, so every
// materialized job is real work.
type drainJob struct {
	br     *boundRule
	p      *rule.Pred
	tx, ty *relation.Tuple
}

// drain re-evaluates what the new facts touch until no new facts appear
// (the while-loop of algorithm Match). Each round is traced as a child
// span of the in-flight Deduce/IncDeduce root and — at debug level — emits
// one wide event carrying the engine's full knob state.
func (e *Engine) drain() {
	outer := e.curTC
	for round := 0; ; round++ {
		var rsp telemetry.Span
		if outer.Enabled() {
			rsp = outer.Start("chase.drain.round", telemetry.L("round", strconv.Itoa(round)))
			e.curTC = rsp.Context()
		}
		if e.tel != nil {
			e.sampleMem()
		}
		if e.health != nil {
			// Round boundary: every enumeration of the previous round has
			// joined, so the health layer sees a quiesced engine: one
			// heartbeat per round for the stall watchdog, and a periodic
			// sampled audit of the engine's invariants.
			e.health.hb.Beat()
			if round > 0 && round%healthAuditEvery == 0 {
				e.auditHealth()
			}
		}
		// Lines 4-7 of IncDeduce: update-driven re-evaluation of valuations
		// that involve a new match or validated prediction.
		events := len(e.queue)
		if events > 0 {
			q := e.queue
			e.queue = nil
			e.processEvents(q)
		}
		if e.log.Level() <= telemetry.LogDebug {
			e.wideRound(round, events)
		}
		rsp.End()
		if events == 0 {
			if e.health != nil {
				// Fixpoint reached: audit unconditionally, so every
				// deduction ends with a fresh invariant pass even when it
				// took fewer than healthAuditEvery rounds.
				e.auditHealth()
			}
			e.curTC = outer
			return
		}
		e.cnt.rounds.Add(1)
	}
}

// processEvents expands a round's events into re-enumeration jobs and runs
// them batch-wise. Class merges expand their cross pairs here, lazily per
// id predicate in scope, instead of being materialized O(|Ca|·|Cb|) inside
// the event.
func (e *Engine) processEvents(q []event) {
	jobs := e.jobBuf[:0]
	for _, ev := range q {
		switch ev.kind {
		case FactMatch:
			for _, br := range e.rules {
				for _, p := range br.ids {
					for _, x := range ev.ma {
						for _, y := range ev.mb {
							jobs = e.addJob(jobs, br, p, x, y)
							jobs = e.addJob(jobs, br, p, y, x)
							if len(jobs) >= drainBatchCap {
								e.runJobs(jobs)
								jobs = jobs[:0]
							}
						}
					}
				}
			}
		case FactML:
			for _, br := range e.rules {
				for i := range br.mls {
					m := &br.mls[i]
					if !m.dynamic || m.pred.Model != ev.model {
						continue
					}
					jobs = e.addJob(jobs, br, m.pred, ev.a, ev.b)
					if len(jobs) >= drainBatchCap {
						e.runJobs(jobs)
						jobs = jobs[:0]
					}
				}
			}
		}
	}
	e.runJobs(jobs)
	e.jobBuf = jobs[:0]
}

// addJob appends the job (br, p, x, y) if it is viable: both tuples in the
// rule's scope, on the predicate's relations, and not a self pair under a
// single-variable predicate.
func (e *Engine) addJob(jobs []drainJob, br *boundRule, p *rule.Pred, x, y relation.TID) []drainJob {
	tx, ty := br.scope.Tuple(x), br.scope.Tuple(y)
	if tx == nil || ty == nil {
		return jobs
	}
	if tx.Rel != br.r.Vars[p.V1].RelIdx || ty.Rel != br.r.Vars[p.V2].RelIdx {
		return jobs
	}
	if p.V1 == p.V2 && x != y {
		return jobs
	}
	return append(jobs, drainJob{br: br, p: p, tx: tx, ty: ty})
}

// runJobs executes one batch: on the engine's live context when there is
// no second processor to fan out to — a buffered chunk cannot see the
// facts of earlier jobs in its own batch and re-derives them, which a lone
// processor pays for with nothing to show — or when the batch is small.
//
// Otherwise the batch is split into contiguous chunks, at most one per
// processor, each a pool task; the chunks merge in batch order. A chunk may
// drop a valuation whose literal an earlier chunk's fact validates, where
// the sequential drain would have emitted the head; the merged facts queue
// their own events, so the update-driven path re-derives such heads in the
// next round — the invariant every dropped valuation relies on.
func (e *Engine) runJobs(jobs []drainJob) {
	if len(jobs) == 0 {
		return
	}
	if e.curTC.Enabled() {
		defer e.curTC.Start("chase.drain.batch",
			telemetry.L("jobs", strconv.Itoa(len(jobs)))).EndIf(fineSpanFloor)
	}
	fanMin := e.drainMin
	if fanMin == 0 {
		if runtime.GOMAXPROCS(0) <= 1 {
			fanMin = math.MaxInt
		} else {
			fanMin = drainParallelMin
		}
	}
	if len(jobs) < fanMin {
		for i := range jobs {
			e.ctx.runSeed(&jobs[i])
		}
		e.ctx.flushAccess()
		e.flushCounters(&e.ctx.taskOut)
		return
	}
	nw := min((len(jobs)+minDrainJobsPerWorker-1)/minDrainJobsPerWorker, runtime.GOMAXPROCS(0))
	chunk := (len(jobs) + nw - 1) / nw
	e.pool((len(jobs)+chunk-1)/chunk, func(i int, c *evalCtx) {
		for k := i * chunk; k < min((i+1)*chunk, len(jobs)); k++ {
			c.runSeed(&jobs[k])
		}
	}, func(_ int, o *taskOut) { e.mergeCtx(o) })
}

// mergeCtx applies a task's buffered facts. Duplicate facts (deduced by
// several tasks against the same snapshot) coalesce in applyFact.
func (e *Engine) mergeCtx(o *taskOut) {
	e.flushCounters(o)
	for i, l := range o.facts {
		var j *justification
		if i < len(o.justs) {
			j = o.justs[i]
		}
		e.applyFactJ(literalFact(l), j)
	}
}
