package chase

// The update-driven drain loop of algorithm Match: every drain round
// re-inspects the valuations involving the round's new facts. It subsumes
// the paper's dependency store H: a valuation the seed pass dropped for an
// id or ML literal not yet in Γ is one the fact that validates the literal
// re-seeds. This file batches each round's event queue into explicit
// re-enumeration jobs and runs every batch, split into contiguous chunks,
// as tasks of the engine's pool (pool.go), the one the seed pass of Deduce
// and InsertTuples runs on: each job reads the Γ its batch started from,
// and the chunks' facts merge in job order. So the fact sequence depends
// on the input alone, not on the chunking or GOMAXPROCS, and the final Γ
// is the chase's by the Church-Rosser property (Theorem 1).

import (
	"runtime"
	"strconv"

	"dcer/internal/rule"
	"dcer/internal/telemetry"

	"dcer/internal/relation"
)

// minDrainJobsPerWorker is the smallest job chunk worth a pool task of its
// own; a batch fans out over at most ceil(jobs/minDrainJobsPerWorker) tasks.
const minDrainJobsPerWorker = 8

// drainBatchCap bounds how many jobs a drain round materializes at once.
// Merging two large classes expands |Ca|·|Cb| cross pairs per id predicate,
// which a round must not hold all at once: it flushes full batches (in
// event order) before expanding further.
const drainBatchCap = 1 << 15

// drainJob is one seeded re-enumeration: rule br restarted with the
// seeding predicate p's variables bound to tuples tx and ty. Scope and
// relation compatibility are checked at expansion time, so every
// materialized job is real work.
type drainJob struct {
	br     *boundRule
	p      *rule.Pred
	tx, ty relation.TID
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
	if !br.scope.Has(x) || !br.scope.Has(y) {
		return jobs
	}
	if br.scope.RelOf(x) != br.r.Vars[p.V1].RelIdx || br.scope.RelOf(y) != br.r.Vars[p.V2].RelIdx {
		return jobs
	}
	if p.V1 == p.V2 && x != y {
		return jobs
	}
	return append(jobs, drainJob{br: br, p: p, tx: x, ty: y})
}

// runJobs executes one batch, split into at most one contiguous chunk per
// processor (and one per minDrainJobsPerWorker jobs), each a pool task;
// the chunks merge in batch order. Every job reads the Γ the batch started
// from, so chunking does not change what is merged. A job may drop a
// valuation whose literal an earlier job's fact validates; the merged
// facts queue their own events, so the update-driven path re-derives such
// heads in the next round — the invariant every dropped valuation relies
// on.
func (e *Engine) runJobs(jobs []drainJob) {
	if len(jobs) == 0 {
		return
	}
	if e.curTC.Enabled() {
		defer e.curTC.Start("chase.drain.batch",
			telemetry.L("jobs", strconv.Itoa(len(jobs)))).EndIf(fineSpanFloor)
	}
	nw := min((len(jobs)+minDrainJobsPerWorker-1)/minDrainJobsPerWorker, runtime.GOMAXPROCS(0))
	chunk := (len(jobs) + nw - 1) / nw
	e.pool((len(jobs)+chunk-1)/chunk, func(i int, c *evalCtx) {
		for k := i * chunk; k < min((i+1)*chunk, len(jobs)); k++ {
			c.runSeed(&jobs[k])
		}
	}, func(_ int, o *taskOut) { e.mergeCtx(o) })
}

// mergeCtx applies a task's facts. Duplicate facts (deduced by
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
