package dmatch

import (
	"dcer/internal/chase"
	"dcer/internal/hypart"
	"dcer/internal/relation"
	"dcer/internal/unionfind"
	"dcer/internal/wire"
)

// masterState is the master P₀ of a DMatch run: the global id-equivalence
// relation E_id with per-class host bitsets, the tuple→worker host
// bitsets, the route scratch the per-superstep fold reuses, and — under
// all of it — one link per worker slot. Routing is two-phase: phase 1
// folds every new fact into Γ sequentially and computes its recipient
// bitset (two bitword ORs off the class roots); phase 2 builds each
// destination's inbox independently, suppressing the facts the
// destination produced itself. Nothing here knows whether a
// worker is a goroutine or a process.
type masterState struct {
	n     int // worker count (fixed; dead workers keep their slot)
	words int // host-bitset words, (n+63)/64
	d     *relation.Dataset

	guf *unionfind.UnionFind
	// Host bitsets, flat and `words` wide per entry: hosts[gid*words:] is
	// the set of workers hosting the tuple, classHosts[root*words:] the
	// set hosting any member of the class rooted at root (entries of
	// non-roots are stale and never read).
	hosts      []uint64
	classHosts []uint64
	seenML     map[chase.Fact]bool

	// Route scratch, reused across supersteps: the fact list and the
	// recipient-bitset arena the per-destination builders read.
	routes []factRoute
	arena  []uint64

	// links[w] reaches worker w; nil once w is dropped: dead or, during
	// shutdown, done. Every link reports on events, which is sized so
	// that no link goroutine ever blocks on it: a worker has at most one
	// reply and one death (per direction) outstanding.
	links  []link
	events chan linkEvent
	live   int         // workers not yet dropped
	wire   *wire.Stats // wire tallies of the TCP links; stays zero in-process

	// The schedule: the partition (its virtual blocks and the rules'
	// cubes over them), the current block→worker assignment, the NoMQO
	// bit every Assign carries, and per worker the Assign awaiting
	// dispatch (non-nil: the worker is fresh and must run Deduce on its
	// next Step) and the inbox for the next superstep.
	part    *hypart.Result
	assign  []int
	noMQO   bool
	pending []*wire.Assign
	inboxes [][]chase.Fact
}

// newMasterState builds the master view over dataset d partitioned as
// part for n workers, with every worker's initial Assign pending and no
// links yet.
func newMasterState(d *relation.Dataset, part *hypart.Result, n int, noMQO bool) *masterState {
	ms := &masterState{
		n:       n,
		words:   (n + 63) / 64,
		d:       d,
		guf:     chase.BuildEquivalence(d),
		seenML:  make(map[chase.Fact]bool),
		links:   make([]link, n),
		events:  make(chan linkEvent, 4*n),
		live:    n,
		wire:    &wire.Stats{},
		part:    part,
		assign:  make([]int, len(part.Blocks)),
		noMQO:   noMQO,
		pending: make([]*wire.Assign, n),
		inboxes: make([][]chase.Fact, n),
	}
	for b := range part.Blocks {
		ms.assign[b] = part.Blocks[b].Worker
	}
	ms.setHosts(part.Hosted)
	for w := range ms.pending {
		ms.pending[w] = ms.assignFor(w, nil)
	}
	return ms
}

// assignFor builds worker w's Assign under the current assignment: per
// rule, the cube's extents and the cells w owns, and the facts to replay.
func (ms *masterState) assignFor(w int, replay []chase.Fact) *wire.Assign {
	a := &wire.Assign{NoMQO: ms.noMQO, Replay: replay}
	for r := range ms.part.Cubes {
		a.Extents = append(a.Extents, ms.part.Cubes[r].Extents())
		a.Owned = append(a.Owned, ms.part.Cubes[r].Owned(ms.assign, w))
	}
	return a
}

// setHosts installs hosts, the host bitsets under the current assignment
// (per tuple, every worker owning a cell it lies in: hypart.Result.Hosts),
// and folds them over the current E_id per class root. The master tracks,
// per class root, the workers hosting *any* member of the class: a match
// merging classes Ca and Cb must reach every worker hosting any member of
// either class — a worker hosting x and y needs the bridging fact (a,b)
// even when it hosts neither a nor b, otherwise transitive chains through
// remote tuples would be lost. Keeping host bitsets at the roots makes a
// recipient set two bitword ORs instead of a member-list walk, and class
// union a bitset merge.
func (ms *masterState) setHosts(hosts []uint64) {
	words := ms.words
	ms.hosts = hosts
	ms.classHosts = make([]uint64, ms.d.Size()*words)
	for gid := range ms.d.Size() {
		root := ms.guf.Find(gid)
		for i := 0; i < words; i++ {
			ms.classHosts[root*words+i] |= hosts[gid*words+i]
		}
	}
}

// hosted reports whether worker w hosts tuple gid.
func (ms *masterState) hosted(gid relation.TID, w int) bool {
	return ms.hosts[int(gid)*ms.words+w>>6]&(1<<(uint(w)&63)) != 0
}

// foldDelta folds one worker's superstep delta into the global Γ
// (phase 1, sequential): globally redundant matches are dropped, class
// merges fold the host bitsets, and every surviving fact is appended to
// the route list with its recipient bitset (the ΔΓ_i of the fixpoint
// equations). Matches/Validated accumulate into res in fold order, so
// callers must fold deltas in worker-index order for the deterministic
// Γ both masters share.
func (ms *masterState) foldDelta(w int, delta []chase.Fact, res *Result) {
	words := ms.words
	for _, f := range delta {
		if f.Kind == chase.FactMatch {
			ra, rb := ms.guf.Find(int(f.A)), ms.guf.Find(int(f.B))
			if ra == rb {
				continue // globally redundant
			}
			off := len(ms.arena)
			for i := 0; i < words; i++ {
				ms.arena = append(ms.arena, ms.classHosts[ra*words+i]|ms.classHosts[rb*words+i])
			}
			ms.guf.Union(ra, rb)
			copy(ms.classHosts[ms.guf.Find(ra)*words:], ms.arena[off:off+words])
			res.Matches = append(res.Matches, f)
			ms.routes = append(ms.routes, factRoute{f: f, from: w, off: off})
		} else {
			if ms.seenML[f] {
				continue
			}
			ms.seenML[f] = true
			res.Validated = append(res.Validated, f)
			off := len(ms.arena)
			for i := 0; i < words; i++ {
				ms.arena = append(ms.arena, ms.hosts[int(f.A)*words+i]|ms.hosts[int(f.B)*words+i])
			}
			ms.routes = append(ms.routes, factRoute{f: f, from: w, off: off})
		}
	}
}

// buildDest assembles destination h's inbox from the folded routes
// (phase 2), leaving out what h produced itself this superstep
// (selfDelta). Nothing else can repeat: a match is folded only while its
// classes differ and a prediction only while seenML lacks it, so every
// fact is routed at most once in a run, and never equals a fact a rebuilt
// worker replays. Each destination owns its inbox and counters, so the
// fan-out is race-free and the built batches are identical to a
// sequential build.
func (ms *masterState) buildDest(h int, selfDelta []chase.Fact) (out []chase.Fact, routed, deduped int64) {
	own := make(map[chase.Fact]struct{}, len(selfDelta))
	for _, f := range selfDelta {
		own[f] = struct{}{}
	}
	for _, r := range ms.routes {
		if r.from == h || ms.arena[r.off+(h>>6)]&(1<<(uint(h)&63)) == 0 {
			continue
		}
		if _, dup := own[r.f]; dup {
			deduped++
			continue
		}
		out = append(out, r.f)
		routed++
	}
	return out, routed, deduped
}

// replayFor builds the fact history a rebuilt worker w must replay: every
// match fact (bridging facts may concern tuples it doesn't host) and the
// validated predictions over tuples it now hosts — a rebuilt worker starts
// from it, nothing else.
func (ms *masterState) replayFor(w int, res *Result) []chase.Fact {
	replay := append([]chase.Fact(nil), res.Matches...)
	for _, f := range res.Validated {
		if ms.hosted(f.A, w) || ms.hosted(f.B, w) {
			replay = append(replay, f)
		}
	}
	return replay
}
