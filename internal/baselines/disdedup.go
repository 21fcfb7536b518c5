package baselines

import (
	"runtime"
	"sort"
	"sync"

	"dcer/internal/relation"
)

// parallelFilter evaluates a decision over candidate pairs using w
// goroutines with contiguous chunking, preserving result determinism.
func parallelFilter(cands [][2]*relation.Tuple, w int, decide func([2]*relation.Tuple) bool) [][2]relation.TID {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(cands) {
		w = len(cands)
	}
	if w <= 1 {
		var out [][2]relation.TID
		for _, c := range cands {
			if decide(c) {
				out = append(out, pair(c[0], c[1]))
			}
		}
		return out
	}
	parts := make([][][2]relation.TID, w)
	var wg sync.WaitGroup
	chunk := (len(cands) + w - 1) / w
	for i := 0; i < w; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if hi > len(cands) {
			hi = len(cands)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			for _, c := range cands[lo:hi] {
				if decide(c) {
					parts[i] = append(parts[i], pair(c[0], c[1]))
				}
			}
		}(i, lo, hi)
	}
	wg.Wait()
	var out [][2]relation.TID
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// DisDedupLike is the DisDedup stand-in: the same block-based matching
// core as Dedoop, but with candidate comparisons spread over workers so
// that the maximum per-worker workload is minimized (the system's defining
// contribution). Blocks are split by descending size before chunking,
// which approximates the triangle-distribution balancing of Chu et al.
type DisDedupLike struct {
	MaxBlock  int
	Threshold float64
	Workers   int
}

// Name implements Matcher.
func (m *DisDedupLike) Name() string { return "DisDedup" }

// Match implements Matcher.
func (m *DisDedupLike) Match(d *relation.Dataset) [][2]relation.TID {
	maxBlock, th := m.MaxBlock, m.Threshold
	if maxBlock <= 0 {
		maxBlock = 50
	}
	if th == 0 {
		th = 0.85
	}
	var cands [][2]*relation.Tuple
	schemaOf := make(map[relation.TID]*relation.Schema)
	for ri, rel := range d.Relations {
		blocks := keyBlocks(d, ri, maxBlock)
		sort.Slice(blocks, func(i, j int) bool { return len(blocks[i]) > len(blocks[j]) })
		cs := candidatesFromBlocks(blocks)
		for _, c := range cs {
			schemaOf[c[0].GID] = rel.Schema
		}
		cands = append(cands, cs...)
	}
	out := parallelFilter(cands, m.Workers, func(c [2]*relation.Tuple) bool {
		return avgSimilarity(schemaOf[c[0].GID], c[0], c[1]) >= th
	})
	sortPairs(out)
	return out
}
