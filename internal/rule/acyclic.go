package rule

// IsAcyclic tests the hypergraph acyclicity of a resolved rule's
// precondition (Theorem 3 of the paper): attributes — more precisely, the
// distinct-variable classes — are the vertices, and each tuple variable is
// a hyperedge over the classes it touches. The test is the classical GYO
// reduction: repeatedly remove isolated vertices (appearing in a single
// hyperedge) and hyperedges contained in other hyperedges; the hypergraph
// is acyclic iff everything reduces away.
func IsAcyclic(r *Rule) (bool, error) {
	dvs, err := DistinctVars(r)
	if err != nil {
		return false, err
	}
	// For acyclicity — unlike for hypercube dimensioning — every
	// precondition predicate connects its operands: the two sides of a
	// body id or ML predicate are the same join vertex. Merge their
	// classes before the reduction.
	vertex := make([]int, len(dvs))
	for i := range vertex {
		vertex[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if vertex[x] != x {
			vertex[x] = find(vertex[x])
		}
		return vertex[x]
	}
	classOf := func(v, attr int, mlVec []int) int {
		for ci, dv := range dvs {
			if mlVec != nil {
				if dv.MLVec == nil || len(dv.MLVec) != len(mlVec) || dv.Members[0].Var != v {
					continue
				}
				same := true
				for k := range mlVec {
					if dv.MLVec[k] != mlVec[k] {
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
			if dv.ID {
				if dv.Members[0].Var == v && dv.Members[0].Attr == attr {
					return ci
				}
				continue
			}
			for _, m := range dv.Members {
				if m.Var == v && m.Attr == attr {
					return ci
				}
			}
		}
		return -1
	}
	for i := range r.Body {
		p := &r.Body[i]
		var a, b int
		switch p.Kind {
		case PredID:
			a, b = classOf(p.V1, p.A1, nil), classOf(p.V2, p.A2, nil)
		case PredML:
			a, b = classOf(p.V1, 0, p.A1Vec), classOf(p.V2, 0, p.A2Vec)
		default:
			continue
		}
		if a >= 0 && b >= 0 {
			vertex[find(a)] = find(b)
		}
	}
	// edges[v] = set of merged vertices touched by tuple variable v.
	edges := make([]map[int]bool, len(r.Vars))
	for i := range edges {
		edges[i] = make(map[int]bool)
	}
	for ci, dv := range dvs {
		for _, m := range dv.Members {
			edges[m.Var][find(ci)] = true
		}
	}
	return gyoReduce(edges), nil
}

// gyoReduce runs the GYO algorithm on hyperedges given as vertex sets and
// reports whether the hypergraph is acyclic. Empty hyperedges are allowed.
func gyoReduce(edges []map[int]bool) bool {
	// Work on copies.
	es := make([]map[int]bool, 0, len(edges))
	for _, e := range edges {
		c := make(map[int]bool, len(e))
		for v := range e {
			c[v] = true
		}
		es = append(es, c)
	}
	for {
		changed := false
		// Count vertex occurrences.
		occ := make(map[int]int)
		for _, e := range es {
			for v := range e {
				occ[v]++
			}
		}
		// Rule 1: drop vertices occurring in exactly one hyperedge.
		for _, e := range es {
			for v := range e {
				if occ[v] == 1 {
					delete(e, v)
					changed = true
				}
			}
		}
		// Rule 2: drop hyperedges contained in another hyperedge.
		kept := es[:0]
		for i, e := range es {
			contained := false
			for j, f := range es {
				if i == j {
					continue
				}
				if subset(e, f) && (len(e) < len(f) || i > j) {
					contained = true
					break
				}
			}
			if contained {
				changed = true
				continue
			}
			kept = append(kept, e)
		}
		es = kept
		if len(es) <= 1 {
			return true
		}
		if !changed {
			return false
		}
	}
}

func subset(a, b map[int]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}
