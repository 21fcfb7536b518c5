// Package mqo implements the multi-query-optimization side of HyPart
// (Section IV): it builds a query plan over the predicates of a rule set
// Σ, detects predicates shared between rules, and assigns hash functions
// to the distinct variables of each rule so that rules with common
// predicates share hash functions. It realizes the three orderings of the
// paper: O_r on rules (SortQuery), O_p on predicates (AssignHash) and O_h
// on hash functions.
package mqo

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dcer/internal/relation"
	"dcer/internal/rule"
)

// PredSig is a canonical cross-rule signature of a predicate: two
// predicates in different rules share hash functions iff their signatures
// are equal. Signatures abstract tuple-variable names away and keep only
// relation/attribute structure (plus the model name for ML predicates).
type PredSig string

// sigOf computes the canonical signature of a body or head predicate of a
// resolved rule. Equality predicates are symmetric, so the two sides are
// ordered canonically.
func sigOf(r *rule.Rule, p *rule.Pred) PredSig {
	rel := func(v int) string { return r.Vars[v].Rel }
	switch p.Kind {
	case rule.PredConst:
		return PredSig(fmt.Sprintf("c|%s.%d=%s", rel(p.V1), p.A1, p.Const.Key()))
	case rule.PredEq:
		a := fmt.Sprintf("%s.%d", rel(p.V1), p.A1)
		b := fmt.Sprintf("%s.%d", rel(p.V2), p.A2)
		if b < a {
			a, b = b, a
		}
		return PredSig("e|" + a + "=" + b)
	case rule.PredID:
		return PredSig("i|" + rel(p.V1))
	case rule.PredML:
		return PredSig(fmt.Sprintf("m|%s(%s.%v,%s.%v)", p.Model, rel(p.V1), p.A1Vec, rel(p.V2), p.A2Vec))
	}
	return ""
}

// RuleAssignment holds the hash-function assignment of one rule: its
// distinct variables (dimensions of its hypercube) and, per distinct
// variable, the id of the hash function assigned to it. DimOrder lists the
// distinct-variable positions sorted by hash-function id — the order O_h
// that makes tuples with the same functions land at the same place across
// rules.
type RuleAssignment struct {
	Rule     *rule.Rule
	DVs      []*rule.DistinctVar
	HashFn   []int
	DimOrder []int
}

// Plan is the MQO query plan for a rule set: the shared-predicate DAG
// (flattened to the sharing map), the rule order O_r, and per-rule hash
// assignments.
type Plan struct {
	Assignments []*RuleAssignment
	// Order is O_r: indexes into Assignments in processing order
	// (descending sharing score S_φ).
	Order []int
	// NumHashFns is the total number of distinct hash functions used;
	// with sharing this is below the total number of distinct variables.
	NumHashFns int
	// Shared maps each predicate signature to the rules carrying it.
	Shared map[PredSig][]int
	// TotalDVs is the total distinct-variable count over all rules (the
	// no-sharing hash-function count, for reporting the MQO saving).
	TotalDVs int
}

// Build constructs the plan for Σ. With share=false every distinct
// variable receives a fresh hash function (the DMatch_noMQO
// configuration); with share=true rules with common predicates share.
func Build(rules []*rule.Rule, share bool) (*Plan, error) {
	p := &Plan{Shared: make(map[PredSig][]int)}
	type predRef struct {
		sig  PredSig
		pred *rule.Pred
	}
	rulePreds := make([][]predRef, len(rules))
	for ri, r := range rules {
		dvs, err := rule.DistinctVars(r)
		if err != nil {
			return nil, err
		}
		ra := &RuleAssignment{Rule: r, DVs: dvs, HashFn: make([]int, len(dvs))}
		for i := range ra.HashFn {
			ra.HashFn[i] = -1
		}
		p.Assignments = append(p.Assignments, ra)
		p.TotalDVs += len(dvs)
		seen := make(map[PredSig]bool)
		addPred := func(pr *rule.Pred) {
			sig := sigOf(r, pr)
			rulePreds[ri] = append(rulePreds[ri], predRef{sig, pr})
			if !seen[sig] {
				seen[sig] = true
				p.Shared[sig] = append(p.Shared[sig], ri)
			}
		}
		for i := range r.Body {
			addPred(&r.Body[i])
		}
		addPred(&r.Head)
	}

	// SortQuery: O_r by descending S_φ = number of rules sharing some
	// predicate with φ.
	score := make([]int, len(rules))
	for ri := range rules {
		neighbors := make(map[int]bool)
		for _, pr := range rulePreds[ri] {
			for _, other := range p.Shared[pr.sig] {
				if other != ri {
					neighbors[other] = true
				}
			}
		}
		score[ri] = len(neighbors)
	}
	p.Order = make([]int, len(rules))
	for i := range p.Order {
		p.Order[i] = i
	}
	sort.SliceStable(p.Order, func(i, j int) bool { return score[p.Order[i]] > score[p.Order[j]] })

	// AssignHash, following O_r, O_p, O_h. The sharing unit is the
	// attribute occurrence: per the paper's Example 4, R.B carries the
	// same hash function in every rule mentioning it, equality classes
	// propagate a side's function to the other side (S.A adopts R.B's
	// function when R.B = S.A), id classes share per relation and ML
	// classes per (model, relation, attribute vector, side).
	next := 0
	fresh := func() int { next++; return next - 1 }
	assigned := make(map[string]int) // occurrence key -> hash fn
	occKeys := func(r *rule.Rule, dv *rule.DistinctVar) []string {
		if dv.ID {
			return []string{"i|" + r.Vars[dv.Members[0].Var].Rel}
		}
		if dv.MLVec != nil {
			return []string{fmt.Sprintf("m|%s.%v", r.Vars[dv.Members[0].Var].Rel, dv.MLVec)}
		}
		keys := make([]string, 0, len(dv.Members))
		seen := make(map[string]bool)
		for _, m := range dv.Members {
			k := fmt.Sprintf("a|%s.%d", r.Vars[m.Var].Rel, m.Attr)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		return keys
	}
	assignClass := func(r *rule.Rule, ra *RuleAssignment, dvIdx int) {
		if ra.HashFn[dvIdx] >= 0 {
			return
		}
		if !share {
			ra.HashFn[dvIdx] = fresh()
			return
		}
		keys := occKeys(r, ra.DVs[dvIdx])
		fn := -1
		for _, k := range keys {
			if f, ok := assigned[k]; ok && (fn < 0 || f < fn) {
				fn = f
			}
		}
		if fn < 0 {
			fn = fresh()
		}
		for _, k := range keys {
			if _, ok := assigned[k]; !ok {
				assigned[k] = fn
			}
		}
		ra.HashFn[dvIdx] = fn
	}
	for _, ri := range p.Order {
		ra := p.Assignments[ri]
		r := rules[ri]
		// O_p: predicates by descending S_lp = number of rules sharing.
		prs := append([]predRef(nil), rulePreds[ri]...)
		sort.SliceStable(prs, func(i, j int) bool {
			return len(p.Shared[prs[i].sig]) > len(p.Shared[prs[j].sig])
		})
		for _, pr := range prs {
			for _, dv := range predSides(r, ra.DVs, pr.pred) {
				if dv >= 0 {
					assignClass(r, ra, dv)
				}
			}
		}
		// Remaining distinct variables (not touched by any predicate).
		for i := range ra.HashFn {
			assignClass(r, ra, i)
		}
		// O_h: dimensions sorted by hash-function id.
		ra.DimOrder = make([]int, len(ra.DVs))
		for i := range ra.DimOrder {
			ra.DimOrder[i] = i
		}
		sort.SliceStable(ra.DimOrder, func(a, b int) bool {
			return ra.HashFn[ra.DimOrder[a]] < ra.HashFn[ra.DimOrder[b]]
		})
	}
	p.NumHashFns = next
	return p, nil
}

// predSides maps a predicate to the distinct-variable classes it touches:
// index 0 for its V1 side and 1 for its V2 side (-1 when absent). For
// equality predicates both sides belong to the same class.
func predSides(r *rule.Rule, dvs []*rule.DistinctVar, p *rule.Pred) [2]int {
	findClass := func(v, a int, mlVec []int) int {
		for ci, dv := range dvs {
			if mlVec != nil {
				if dv.MLVec == nil {
					continue
				}
				if len(dv.MLVec) != len(mlVec) {
					continue
				}
				same := dv.Members[0].Var == v
				for i := range mlVec {
					if dv.MLVec[i] != mlVec[i] {
						same = false
						break
					}
				}
				if same {
					return ci
				}
				continue
			}
			if dv.MLVec != nil {
				continue
			}
			for _, m := range dv.Members {
				if m.Var == v && m.Attr == a {
					return ci
				}
			}
		}
		return -1
	}
	switch p.Kind {
	case rule.PredConst:
		return [2]int{findClass(p.V1, p.A1, nil), -1}
	case rule.PredEq:
		return [2]int{findClass(p.V1, p.A1, nil), findClass(p.V2, p.A2, nil)}
	case rule.PredID:
		return [2]int{findIDClass(dvs, p.V1), findIDClass(dvs, p.V2)}
	case rule.PredML:
		return [2]int{findClass(p.V1, p.A1Vec[0], p.A1Vec), findClass(p.V2, p.A2Vec[0], p.A2Vec)}
	}
	return [2]int{-1, -1}
}

func findIDClass(dvs []*rule.DistinctVar, v int) int {
	for ci, dv := range dvs {
		if dv.ID && dv.Members[0].Var == v {
			return ci
		}
	}
	return -1
}

// Savings reports the hash-function saving of the plan: functions used vs
// the one-per-distinct-variable baseline.
func (p *Plan) Savings() (used, baseline int) { return p.NumHashFns, p.TotalDVs }

// String renders a compact summary of the plan.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mqo plan: %d rules, %d hash fns (baseline %d)\n",
		len(p.Assignments), p.NumHashFns, p.TotalDVs)
	for _, ri := range p.Order {
		ra := p.Assignments[ri]
		fmt.Fprintf(&b, "  %s: dims=%d fns=%v\n", ra.Rule.Name, len(ra.DVs), ra.HashFn)
	}
	return b.String()
}

// Hasher evaluates hash functions over values with cross-rule memoization:
// the same (function, value) pair is computed once, which is exactly the
// computation MQO sharing saves. Computations and lookups are counted for
// the experiments. Hasher is single-threaded and value-keyed — the oracle
// the reference partitioner and the tests use; the parallel partitioner
// uses DenseHasher, which keeps the same memo semantics under concurrency.
type Hasher struct {
	memo         map[hkey]uint32
	Computations int64
	Lookups      int64
}

// hkey identifies a memoized (function, value) pair without rendering the
// value's canonical key string: strings carry their payload directly
// (the header is shared, not copied) and numerics their exact bit
// pattern, so distinct canonical keys — including -0 vs +0 and int vs
// float of equal magnitude — stay distinct memo entries, exactly as the
// old string-keyed memo had them.
type hkey struct {
	fn   int
	kind relation.Type
	bits uint64
	str  string
}

func hkeyOf(fn int, v relation.Value) hkey {
	if v.Kind == relation.TypeString {
		return hkey{fn: fn, kind: v.Kind, str: v.Str}
	}
	return hkey{fn: fn, kind: v.Kind, bits: math.Float64bits(v.Num)}
}

// NewHasher creates an empty memoizing hasher.
func NewHasher() *Hasher { return &Hasher{memo: make(map[hkey]uint32)} }

// Hash evaluates hash function fn on value v (FNV-1a seeded by fn).
func (h *Hasher) Hash(fn int, v relation.Value) uint32 {
	h.Lookups++
	k := hkeyOf(fn, v)
	if r, ok := h.memo[k]; ok {
		return r
	}
	h.Computations++
	r := fnvHashValue(fn, v)
	h.memo[k] = r
	return r
}

// DenseHasher is the concurrency-safe Hasher of the parallel partitioner,
// built on the dense id spaces of the storage layer instead of a value-
// keyed map: per hash function, string values are memoized in a paged
// table indexed by relation.Sym and filled lock-free (0 = empty, else
// memoSet|hash, published by compare-and-swap, so exactly one goroutine
// counts each computation), numerics in a small map keyed by the packed
// column word. It reads packed columns directly — no Value is boxed and
// no string is re-hashed to find its own memo entry. Results are
// bit-identical to fnvHashValue and the Computations/Lookups accounting
// the Exp-2 experiments report is identical to the sequential Hasher's:
// Syms and packed words are one-to-one with canonical value keys.
type DenseHasher struct {
	syms         *relation.SymTab
	fns          []fnMemo
	computations atomic.Int64
	lookups      atomic.Int64
}

type fnMemo struct {
	strs []atomic.Pointer[memoPage] // by Sym>>memoPageBits; pages allocated on first use
	mu   sync.Mutex
	nums [2]map[uint64]uint32 // by packed word: TypeInt, TypeFloat
}

// A function hashes a few attributes, whose values cluster in the Sym
// ranges their relations were loaded into; paging keeps the table from
// paying for the rest of the symbol space.
const (
	memoSet      = 1 << 32
	memoPageBits = 10
)

type memoPage [1 << memoPageBits]atomic.Uint64

// NewDenseHasher creates an empty memo for hash functions 0..numFns-1
// over values interned in syms.
func NewDenseHasher(numFns int, syms *relation.SymTab) *DenseHasher {
	h := &DenseHasher{syms: syms, fns: make([]fnMemo, numFns)}
	pages := syms.Len()>>memoPageBits + 1
	for i := range h.fns {
		h.fns[i].strs = make([]atomic.Pointer[memoPage], pages)
	}
	return h
}

// HashColumn evaluates hash function fn on one attribute of the tuples in
// the given rows: col is the attribute's packed storage column
// (Relation.Col) of type typ, and out[i] receives the hash of col[rows[i]].
func (h *DenseHasher) HashColumn(fn int, typ relation.Type, col []uint64, rows []int32, out []uint32) {
	h.lookups.Add(int64(len(rows)))
	m := &h.fns[fn]
	var computed int64
	if typ == relation.TypeString {
		for i, row := range rows {
			w := col[row]
			slot := &m.strs[w>>memoPageBits]
			page := slot.Load()
			if page == nil {
				slot.CompareAndSwap(nil, new(memoPage))
				page = slot.Load()
			}
			entry := &page[w&(1<<memoPageBits-1)]
			e := entry.Load()
			if e == 0 {
				e = memoSet | uint64(fnvHashValue(fn, relation.S(h.syms.Str(relation.Sym(w)))))
				if entry.CompareAndSwap(0, e) {
					computed++
				}
			}
			out[i] = uint32(e)
		}
	} else {
		m.mu.Lock()
		nums := m.nums[typ-relation.TypeInt]
		if nums == nil {
			nums = make(map[uint64]uint32)
			m.nums[typ-relation.TypeInt] = nums
		}
		for i, row := range rows {
			w := col[row]
			r, ok := nums[w]
			if !ok {
				r = fnvHashValue(fn, relation.Value{Kind: typ, Num: math.Float64frombits(w)})
				nums[w] = r
				computed++
			}
			out[i] = r
		}
		m.mu.Unlock()
	}
	h.computations.Add(computed)
}

// Counts reports the hash evaluations performed and requested so far.
func (h *DenseHasher) Counts() (computations, lookups int64) {
	return h.computations.Load(), h.lookups.Load()
}

const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnvHash(seed int, s string) uint32 {
	return fnvFold(uint32(fnvOffset32)^uint32(seed*2654435761), s)
}

func fnvFold(x uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		x ^= uint32(s[i])
		x *= fnvPrime32
	}
	return x
}

// fnvHashValue computes fnvHash(seed, v.Key()) without materializing the
// canonical key string: the kind prefix and payload rendering are folded
// into the FNV state incrementally, numerics through stack buffers. The
// resulting hash — and therefore every partitioning decision downstream —
// is bit-identical to the string-keyed path.
func fnvHashValue(seed int, v relation.Value) uint32 {
	x := uint32(fnvOffset32) ^ uint32(seed*2654435761)
	var buf [32]byte
	var payload []byte
	switch v.Kind {
	case relation.TypeString:
		x = fnvFold(x, "s:")
		return fnvFold(x, v.Str)
	case relation.TypeInt:
		x = fnvFold(x, "i:")
		payload = strconv.AppendInt(buf[:0], int64(v.Num), 10)
	default:
		x = fnvFold(x, "f:")
		payload = strconv.AppendFloat(buf[:0], v.Num, 'g', -1, 64)
	}
	for _, c := range payload {
		x ^= uint32(c)
		x *= fnvPrime32
	}
	return x
}

// Dot renders the query plan as a Graphviz digraph: one node per rule, one
// node per shared predicate signature, and edges from predicates to the
// rules carrying them — the flattened form of the MQO plan DAG of Fig. 1
// in the paper.
func (p *Plan) Dot() string {
	var b strings.Builder
	b.WriteString("digraph mqo {\n  rankdir=LR;\n")
	for i, ra := range p.Assignments {
		fmt.Fprintf(&b, "  r%d [shape=box,label=%q];\n", i, ra.Rule.Name)
	}
	sigs := make([]string, 0, len(p.Shared))
	for sig, rules := range p.Shared {
		if len(rules) > 1 {
			sigs = append(sigs, string(sig))
		}
	}
	sort.Strings(sigs)
	for si, sig := range sigs {
		fmt.Fprintf(&b, "  p%d [shape=ellipse,label=%q];\n", si, sig)
		for _, ri := range p.Shared[PredSig(sig)] {
			fmt.Fprintf(&b, "  p%d -> r%d;\n", si, ri)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
