package chase

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/unionfind"
)

// naiveStore is the dependency store this package used to have, reduced to
// its contract and kept as the oracle of the packed one: a map by content,
// a full scan on fire, the survivors sorted by insertion number, and every
// dependency sharing a fired head removed with it.
type naiveStore struct {
	deps map[string]*naiveDep
	seq  int
}

type naiveDep struct {
	body []Literal
	head Literal
	seq  int
}

func depKeyString(body []Literal, head Literal) string { return fmt.Sprint(body, ">", head) }

func (n *naiveStore) add(body []Literal, head Literal) {
	k := depKeyString(body, head)
	if _, dup := n.deps[k]; !dup {
		n.seq++
		n.deps[k] = &naiveDep{body: slices.Clone(body), head: head, seq: n.seq}
	}
}

func (n *naiveStore) fire(sat func(Literal) bool) []Literal {
	var fired []*naiveDep
	for _, d := range n.deps {
		if !slices.ContainsFunc(d.body, func(l Literal) bool { return !sat(l) }) {
			fired = append(fired, d)
		}
	}
	sort.Slice(fired, func(i, j int) bool { return fired[i].seq < fired[j].seq })
	heads := make([]Literal, len(fired))
	for i, f := range fired {
		heads[i] = f.head
		for k, d := range n.deps {
			if d.head == f.head {
				delete(n.deps, k)
			}
		}
	}
	return heads
}

// gammaWorld is a minimal Γ: the id equivalence plus the validated set,
// waking a store's watchers the way applyFactJ does.
type gammaWorld struct {
	uf        *unionfind.UnionFind
	validated map[Literal]bool
	// wake, when set, is told every tuple a new fact touches.
	wake func(relation.TID)
}

func (g *gammaWorld) sat(l Literal) bool {
	if l.Kind == FactMatch {
		return l.A == l.B || g.uf.Same(int(l.A), int(l.B))
	}
	return g.validated[l]
}

// apply enters l into Γ and reports whether that changed it.
func (g *gammaWorld) apply(l Literal) bool {
	if g.sat(l) {
		return false
	}
	touched := []relation.TID{l.A}
	if l.Kind == FactML {
		g.validated[l] = true
	} else {
		ra, rb := g.uf.Find(int(l.A)), g.uf.Find(int(l.B))
		touched = touched[:0]
		for t := 0; t < g.uf.Len(); t++ { // members of both classes, before the union
			if r := g.uf.Find(t); r == ra || r == rb {
				touched = append(touched, relation.TID(t))
			}
		}
		g.uf.Union(ra, rb)
	}
	if g.wake != nil {
		for _, t := range touched {
			g.wake(t)
		}
	}
	return true
}

// liveDeps walks the packed store's arena and returns its live content.
func liveDeps(s *DepStore) map[string]*naiveDep {
	out := make(map[string]*naiveDep)
	for _, c := range s.chunks {
		if c == nil {
			continue
		}
		for off := 1; off < len(c.w); off += depSize(c.w[off]) {
			o := c.w[off:]
			if o[0]&depDead != 0 {
				continue
			}
			d := &naiveDep{head: unpackLit(o[depHdrWords:])}
			for i := 0; i < int(o[0]&0xff); i++ {
				d.body = append(d.body, unpackLit(o[depBodyOff+depLitWords*i:]))
			}
			out[depKeyString(d.body, d.head)] = d
		}
	}
	return out
}

// TestDepStoreDifferential drives the packed, watched-literal store and the
// naive map-and-full-scan model through the same random schedule of adds,
// merges, validations, enforced heads, rounds and evictions, each over its
// own Γ, and requires round by round the same sequence of Γ-changing fired
// heads, the same Γ, and the same dependencies with a head still open.
// Every wake must stay within the dependencies that mention the woken
// tuple. The tuple universe and the ML models come from
// datagen.RandomInstance.
func TestDepStoreDifferential(t *testing.T) {
	seeds, steps := int64(40), 3000
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(0); seed < seeds; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatal(err)
		}
		models := []uint16{internModel("m")}
		for _, r := range rules {
			for _, p := range append(slices.Clone(r.Body), r.Head) {
				if p.Kind == rule.PredML {
					models = append(models, internModel(p.Model))
				}
			}
		}
		n := d.Size()
		rng := rand.New(rand.NewSource(seed))
		randLit := func() Literal {
			a, b := relation.TID(rng.Intn(n)), relation.TID(rng.Intn(n))
			if rng.Intn(3) == 0 {
				return mlLit(models[rng.Intn(len(models))], a, b)
			}
			if a == b {
				b = (a + 1) % relation.TID(n)
			}
			return matchLit(min(a, b), max(a, b))
		}

		wa := &gammaWorld{uf: unionfind.New(n), validated: map[Literal]bool{}}
		wb := &gammaWorld{uf: unionfind.New(n), validated: map[Literal]bool{}}
		packed := NewDepStore(-1, wa.sat)
		naive := &naiveStore{deps: map[string]*naiveDep{}}
		wa.wake = func(tid relation.TID) {
			mention := 0
			for _, c := range packed.chunks {
				for off := 1; c != nil && off < len(c.w); off += depSize(c.w[off]) {
					o := c.w[off:]
					for i := 0; o[0]&depDead == 0 && i < int(o[0]&0xff); i++ {
						if relation.TID(o[depBodyOff+depLitWords*i]) == tid {
							mention++
							break
						}
					}
				}
			}
			if v := packed.wake(tid); v > int64(mention) {
				t.Fatalf("seed %d: waking tuple %d visited %d dependencies, only %d mention it", seed, tid, v, mention)
			}
		}
		fact := func(l Literal) {
			if wa.apply(l) != wb.apply(l) {
				t.Fatalf("seed %d: the two Γ disagree on whether %v is new", seed, l)
			}
		}
		check := func(step int) {
			open := func(m map[string]*naiveDep, sat func(Literal) bool) []string {
				var ks []string
				for k, dep := range m {
					if !sat(dep.head) {
						ks = append(ks, k)
					}
				}
				sort.Strings(ks)
				return ks
			}
			if a, b := open(liveDeps(packed), wa.sat), open(naive.deps, wb.sat); !slices.Equal(a, b) {
				t.Fatalf("seed %d step %d: dependencies with an open head differ:\npacked %v\nnaive  %v", seed, step, a, b)
			}
			if bytes, live := packed.recount(); bytes != packed.MemBytes() || live != packed.Len() {
				t.Fatalf("seed %d step %d: account %d bytes / %d deps, recount %d / %d",
					seed, step, packed.MemBytes(), packed.Len(), bytes, live)
			}
		}

		for step := 0; step < steps; step++ {
			switch op := rng.Intn(100); {
			case op < 70: // record a dependency
				body := make([]Literal, 1+rng.Intn(3))
				for i := range body {
					body[i] = randLit()
				}
				sortLiterals(body)
				body = slices.Compact(body)
				head := randLit()
				packed.add(appendDep(nil, body, head), nil)
				naive.add(body, head)
			case op < 80: // a fact from elsewhere: a merge or a validation
				fact(randLit())
			case op < 84: // the head of a stored dependency enforced by other means
				var ks []string
				for k := range naive.deps {
					ks = append(ks, k)
				}
				if len(ks) > 0 {
					sort.Strings(ks)
					fact(naive.deps[ks[rng.Intn(len(ks))]].head)
				}
			case op < 99: // a drain round: fire what is ready
				var ha, hb []Literal
				packed.fireReady(false, func(h Literal, _ *justification) {
					if wa.apply(h) {
						ha = append(ha, h)
					}
				})
				for _, h := range naive.fire(wb.sat) {
					if wb.apply(h) {
						hb = append(hb, h)
					}
				}
				if !slices.Equal(ha, hb) {
					t.Fatalf("seed %d step %d: Γ-changing fired heads differ:\npacked %v\nnaive  %v", seed, step, ha, hb)
				}
				for a := 0; a < n; a++ {
					for b := a + 1; b < n; b++ {
						if wa.uf.Same(a, b) != wb.uf.Same(a, b) {
							t.Fatalf("seed %d step %d: the two Γ disagree on (%d,%d)", seed, step, a, b)
						}
					}
				}
				if len(wa.validated) != len(wb.validated) {
					t.Fatalf("seed %d step %d: validated sets differ", seed, step)
				}
				check(step)
			default: // the byte budget sheds the oldest chunk
				before := liveDeps(packed)
				if !packed.evictOldest() {
					continue
				}
				after := liveDeps(packed)
				oldest := 0
				for k, dep := range naive.deps {
					if _, held := before[k]; !held || wb.sat(dep.head) {
						continue
					}
					if _, kept := after[k]; kept {
						if oldest == 0 || dep.seq < oldest {
							oldest = dep.seq
						}
					}
				}
				for k, dep := range naive.deps {
					if _, held := before[k]; !held {
						continue
					}
					if _, kept := after[k]; !kept {
						if oldest != 0 && dep.seq > oldest && !wb.sat(dep.head) {
							t.Fatalf("seed %d step %d: evicted %v (seq %d) while an older dependency (seq %d) stayed", seed, step, k, dep.seq, oldest)
						}
						delete(naive.deps, k)
					}
				}
				check(step)
			}
		}
	}
}
