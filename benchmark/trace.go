package main

import (
	"sort"
	"time"
)

// span is one interval recorded by the benchmark around a public call of a
// layer. Layers are the repo's packages; the root span of a repetition has
// layer "trace", so its self time is the part of the repetition no layer
// span accounts for.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a repetition's root
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNs  int64  `json:"start_ns"` // since the tracer was created
	EndNs    int64  `json:"end_ns"`
	// Derived marks a span whose duration was read from a public result
	// struct (dmatch.Result.PartitionTime, ERTime) because the call it
	// covers happens inside another public call the benchmark times.
	Derived bool `json:"derived,omitempty"`
}

// tracer keeps spans in memory; a nil tracer records nothing, which is how
// the gated repetitions run.
type tracer struct {
	epoch    time.Time
	workload string
	rep      int
	spans    []span
}

func newTracer(workload string, rep int) *tracer {
	return &tracer{epoch: time.Now(), workload: workload, rep: rep}
}

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Rep: t.rep,
		StartNs: time.Since(t.epoch).Nanoseconds(),
	})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = time.Since(t.epoch).Nanoseconds()
}

// derived records a child of parent that starts at offset after the
// parent's start and lasts dur, both taken from a result struct.
func (t *tracer) derived(name, layer string, parent int, offset, dur time.Duration) {
	if t == nil {
		return
	}
	s := t.spans[parent].StartNs + offset.Nanoseconds()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Rep: t.rep,
		StartNs: s, EndNs: s + dur.Nanoseconds(), Derived: true,
	})
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (children are clipped to the
// parent and overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// layerSelfSeconds sums self times by layer.
func layerSelfSeconds(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, ns := range selfTimes(spans) {
		out[spans[i].Layer] += float64(ns) / 1e9
	}
	return out
}
