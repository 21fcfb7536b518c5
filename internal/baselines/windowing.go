package baselines

import (
	"sort"

	"dcer/internal/relation"
)

// Windowing is the classic sorted-neighborhood method (Hernández &
// Stolfo): sort each relation's tuples by a key (the record text), slide a
// window of size W and compare only tuples inside the same window.
type Windowing struct {
	Window    int
	Threshold float64
}

// Name implements Matcher.
func (m *Windowing) Name() string { return "Windowing" }

// Match implements Matcher.
func (m *Windowing) Match(d *relation.Dataset) [][2]relation.TID {
	w, th := m.Window, m.Threshold
	if w <= 1 {
		w = 10
	}
	if th == 0 {
		th = 0.85
	}
	var out [][2]relation.TID
	for ri, rel := range d.Relations {
		type keyed struct {
			key string
			t   *relation.Tuple
		}
		tuples := d.Relations[ri].Tuples
		ks := make([]keyed, len(tuples))
		for i, t := range tuples {
			ks[i] = keyed{recordText(rel.Schema, t), t}
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
		for i := range ks {
			for j := i + 1; j < len(ks) && j <= i+w-1; j++ {
				if avgSimilarity(rel.Schema, ks[i].t, ks[j].t) >= th {
					out = append(out, pair(ks[i].t, ks[j].t))
				}
			}
		}
	}
	sortPairs(out)
	return out
}
