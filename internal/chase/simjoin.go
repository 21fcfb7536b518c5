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
// filled by exactly one of the goroutines that share the join.
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
	memo map[uint64]*simEntry // by the probing tuple's word of from
}

// simEntry is what one probing value accepts: the B words, sorted, and
// their tuples in scan order. Read-only once published in the memo.
type simEntry struct {
	keys []uint64
	list []*relation.Tuple
}

func (en *simEntry) has(w uint64) bool {
	_, ok := slices.BinarySearch(en.keys, w)
	return ok
}

// bindSimJoins gives br's ML predicates their similarity joins, one per
// side that can be chosen off a full scan while the other side is bound: a
// static feature-scored predicate over single attributes of two variables
// that no equality joins, on a variable without constant predicates.
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
			case s == 1 && m.sim[0] != nil && m.fc.Symmetric() && rel == br.r.Vars[p.V1].RelIdx && attrs[0] == attrs[1]:
				m.sim[0].both = true
				m.sim[1] = m.sim[0]
			default:
				m.sim[s] = &simJoin{
					rel: rel, attr: attrs[s], from: attrs[1-s], ixs: br.ix,
					scan: br.scope.Relations[rel], memo: make(map[uint64]*simEntry),
				}
			}
		}
	}
}

// simAccess resolves the similarity join, if there is one, of variable v,
// which extend has just chosen off a full scan: the candidates, the index
// in br.mls of the predicate they satisfy (-1: none, keep the scan) and the
// number of values scored to answer. Never called while candidates are only
// being estimated: a probe for a variable then not chosen is pure cost. A
// classifier recording a Calibration wants every pair, so it keeps the scan.
func (c *evalCtx) simAccess(v int) (cands []*relation.Tuple, mi int, scored int64) {
	for i := range c.br.mls {
		m := &c.br.mls[i]
		for s, j := range m.sim {
			vs, vo := m.pred.V1, m.pred.V2
			if s == 1 {
				vs, vo = vo, vs
			}
			bound := c.binding[vo]
			if j == nil || vs != v || bound == nil || mlpred.CalibrationOf(m.cl) != nil {
				continue
			}
			w := bound.Word(j.from)
			j.mu.RLock()
			en := j.memo[w]
			j.mu.RUnlock()
			if en == nil {
				en, scored = c.simFill(m, j, s, bound, w)
			}
			return en.list, i, scored
		}
	}
	return nil, -1, 0
}

// simFill scores bound's value w against every distinct value of j's
// column and publishes what it accepts, under the lock throughout: a second
// goroutine probing w waits for the entry instead of scoring it again, so
// the invocation count (one per classifier decision) repeats run over run.
func (c *evalCtx) simFill(m *boundMLPred, j *simJoin, s int, bound *relation.Tuple, w uint64) (*simEntry, int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if en := j.memo[w]; en != nil {
		return en, 0
	}
	en := &simEntry{}
	fb := c.bundle(m, bound, 1-s)
	calls := c.mlCalls
	j.ixs.For(j.rel, j.attr).Each(func(key uint64, post []*relation.Tuple) {
		var ok bool
		var o *simEntry
		if j.both { // the memo's keys are values of this column too
			o = j.memo[key]
		}
		if o != nil {
			ok = o.has(w) // this pair was scored when key was the probing value
		} else {
			c.mlCalls++
			if fk := c.bundle(m, post[0], s); s == 0 {
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
	for _, t := range j.scan.Tuples {
		if en.has(t.Word(j.attr)) {
			en.list = append(en.list, t)
		}
	}
	j.memo[w] = en
	return en, c.mlCalls - calls
}

// resetSimJoins forgets what the joins over the relations of the inserted
// tuples memoized: those lengthen postings and bring values no entry was
// scored against. The indexes themselves follow the insert (IndexSet.Add);
// the next probe of a value re-scores it, at the cost of one scan of old.
func (e *Engine) resetSimJoins(inserted []*relation.Tuple) {
	for _, br := range e.rules {
		for i := range br.mls {
			for _, j := range br.mls[i].sim {
				if j != nil && slices.ContainsFunc(inserted, func(t *relation.Tuple) bool { return t.Rel == j.rel }) {
					clear(j.memo)
				}
			}
		}
	}
}
