package chase

import (
	"slices"
	"sync"

	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// simJoin is the access path of a variable y whose only join to the bound
// ones is a static ML predicate M(x.A, y.B) over one attribute a side.
// Instead of scanning y's relation and scoring every tuple, the bound x's
// bundle is scored once against one representative bundle per distinct B
// value — the keys of the inverted index on B — and the tuples of the
// accepted values, in scan order, are the candidates: the subset of the
// scan that passes M, so M's plan step is satisfied by construction
// (DESIGN.md §7). Accepted sets are memoized per distinct A value, each
// filled by exactly one of the goroutines that share the join. A worker
// engine skips a B value none of whose tuples its step's cell cut admits
// with the bound variables' cell bits, so the workers score each pair of
// values about once between them.
type simJoin struct {
	rel, attr int // y's relation and B
	from      int // A, the probing tuple's attribute
	// ixs holds the index on (rel, attr), built by the first probe — most
	// joins are never probed — and kept current by InsertTuples.
	ixs  *relation.IndexSet
	scan *relation.Relation // what the candidates are a subset of, in its order
	// both marks a symmetric classifier over one column on either side: one
	// join serves both variables and scores each unordered value pair once.
	both bool

	mu   sync.RWMutex
	memo map[simKey]*simEntry
}

// simKey addresses a memo entry: the probing word of from and, in a worker
// engine, the cut's mask and the bound variables' cell bits.
type simKey struct {
	w          uint64
	mask, part int32
}

// simEntry is what one probing value accepts: the B words, sorted, and
// their tuples in scan order. Read-only once published in the memo.
type simEntry struct {
	keys []uint64
	list []relation.TID
}

func (en *simEntry) has(w uint64) bool {
	_, ok := slices.BinarySearch(en.keys, w)
	return ok
}

// bindSimJoins gives br's ML predicates their similarity joins, one per
// side that can be chosen off a full scan while the other side is bound: a
// static feature-scored predicate over single attributes of two variables
// that no equality joins, on a variable without constant predicates. Only
// a lone engine, which skips nothing, serves both sides with one join.
func (br *boundRule) bindSimJoins() {
	for i := range br.mls {
		m := &br.mls[i]
		p := m.pred
		eqJoined := slices.ContainsFunc(br.eqs, func(q *rule.Pred) bool {
			return q.V1 == p.V1 && q.V2 == p.V2 || q.V1 == p.V2 && q.V2 == p.V1
		})
		if m.dynamic || m.fc == nil || p.V1 == p.V2 || len(p.A1Vec) != 1 || len(p.A2Vec) != 1 || eqJoined {
			continue
		}
		vars, attrs := [2]int{p.V1, p.V2}, [2]int{p.A1Vec[0], p.A2Vec[0]}
		for s, v := range vars {
			rel := br.r.Vars[v].RelIdx
			switch {
			case len(br.consts[v]) > 0:
			case s == 1 && m.sim[0] != nil && br.cells == nil && m.fc.Symmetric() && rel == br.r.Vars[p.V1].RelIdx && attrs[0] == attrs[1]:
				m.sim[0].both = true
				m.sim[1] = m.sim[0]
			default:
				m.sim[s] = &simJoin{
					rel: rel, attr: attrs[s], from: attrs[1-s], ixs: br.ix,
					scan: br.rels[v], memo: make(map[simKey]*simEntry),
				}
			}
		}
	}
}

// simAccess resolves the similarity join, if there is one, of variable v,
// whose join-order step is a full scan cut by cs (nil: no cut): the
// candidates, the index in br.mls of the predicate they satisfy (-1: none,
// keep the scan) and the number of values scored to answer. A classifier
// recording a Calibration wants every pair, so it keeps the scan.
func (c *evalCtx) simAccess(v int, cs *cellStep) (cands []relation.TID, mi int, scored int64) {
	for i := range c.br.mls {
		m := &c.br.mls[i]
		for s, j := range m.sim {
			vs, vo := m.pred.V1, m.pred.V2
			if s == 1 {
				vs, vo = vo, vs
			}
			bound := c.binding[vo]
			if j == nil || vs != v || bound == unbound || mlpred.CalibrationOf(m.cl) != nil {
				continue
			}
			at := simKey{w: c.word(vo, bound, j.from)}
			if cs != nil {
				at.mask, at.part = cs.mask, c.part
			}
			j.mu.RLock()
			en := j.memo[at]
			j.mu.RUnlock()
			if en == nil {
				en, scored = c.simFill(m, j, s, bound, at, cs)
			}
			return en.list, i, scored
		}
	}
	return nil, -1, 0
}

// simFill scores bound's value at.w against every distinct value of j's
// column that cut cs admits with at.part and publishes what it accepts,
// under the lock throughout: a second goroutine probing at waits for the
// entry instead of scoring it again, so the invocation count (one per
// classifier decision) repeats run over run.
func (c *evalCtx) simFill(m *boundMLPred, j *simJoin, s int, bound relation.TID, at simKey, cs *cellStep) (*simEntry, int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if en := j.memo[at]; en != nil {
		return en, 0
	}
	en := &simEntry{}
	fb := c.bundle(m, bound, 1-s)
	calls := c.mlCalls
	admits := func(t relation.TID) bool { return fits(cs.fits, at.part|cs.col[c.rows[t]]) }
	j.ixs.For(j.rel, j.attr).Each(func(key uint64, post []relation.TID) {
		rep := post[0] // the value's representative: its first tuple the cut admits
		if cs != nil {
			i := slices.IndexFunc(post, admits)
			if i < 0 {
				return
			}
			rep = post[i]
		}
		var ok bool
		var o *simEntry
		if j.both { // the memo's keys are values of this column too
			o = j.memo[simKey{w: key}]
		}
		if o != nil {
			ok = o.has(at.w) // this pair was scored when key was the probing value
		} else {
			c.mlCalls++
			if fk := c.bundle(m, rep, s); s == 0 {
				ok = m.fc.PredictFeatures(fk, fb)
			} else {
				ok = m.fc.PredictFeatures(fb, fk)
			}
		}
		if ok {
			en.keys = append(en.keys, key)
		}
	})
	slices.Sort(en.keys)
	for _, t := range j.scan.TIDs() {
		if en.has(j.scan.Word(t, j.attr)) {
			en.list = append(en.list, t)
		}
	}
	j.memo[at] = en
	return en, c.mlCalls - calls
}

// resetSimJoins forgets what the joins over the relations of the inserted
// tuples memoized: those lengthen postings and bring values no entry was
// scored against. The indexes themselves follow the insert (IndexSet.AddBatch);
// the next probe of a value re-scores it, at the cost of one scan of old.
func (e *Engine) resetSimJoins(inserted []relation.TID) {
	for _, br := range e.rules {
		for i := range br.mls {
			for _, j := range br.mls[i].sim {
				if j != nil && slices.ContainsFunc(inserted, func(t relation.TID) bool { return e.d.RelOf(t) == j.rel }) {
					clear(j.memo)
				}
			}
		}
	}
}
