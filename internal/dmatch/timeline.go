package dmatch

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// WorkerStep is one worker's share of one BSP superstep.
type WorkerStep struct {
	Worker   int   `json:"worker"`
	BusyNs   int64 `json:"busy_ns"`   // compute time inside Deduce/IncDeduce
	IdleNs   int64 `json:"idle_ns"`   // barrier wait: step makespan - busy
	FactsOut int   `json:"facts_out"` // delta facts the worker reported
	MsgsIn   int   `json:"msgs_in"`   // facts delivered to it for this step
}

// Superstep is the timeline entry for one BSP round: the per-worker
// compute profile, the master's routing time, and the step's skew.
type Superstep struct {
	Step       int   `json:"step"`
	MakespanNs int64 `json:"makespan_ns"` // max busy over workers
	RouteNs    int64 `json:"route_ns"`    // master routing after the barrier
	// WallNs is the real elapsed time of the whole superstep as the master
	// observed it: dispatch, worker compute, barrier, and routing. Unlike
	// Timeline.Makespan (a what-if model of an n-machine cluster), this is
	// a measurement.
	WallNs int64 `json:"wall_ns"`
	// BytesOnWire is the wire traffic of this superstep (both directions,
	// master side); 0 in in-process mode, where no bytes move.
	BytesOnWire    int64   `json:"bytes_on_wire"`
	SkewRatio      float64 `json:"skew_ratio"` // makespan / mean busy of active workers
	MessagesRouted int64   `json:"messages_routed"`
	// MessagesDeduped counts deliveries suppressed this step: facts their
	// destination produced itself.
	MessagesDeduped int64        `json:"messages_deduped"`
	Workers         []WorkerStep `json:"workers"`
}

// Timeline is the full BSP execution profile of a DMatch run, one entry
// per superstep. It marshals to JSON for /debug/dcer and bench reports,
// and renders as an ASCII Gantt chart for terminals.
type Timeline struct {
	Workers int         `json:"workers"`
	Steps   []Superstep `json:"steps"`
}

// record appends one superstep from the master's raw measurements.
func (tl *Timeline) record(step int, elapsed []time.Duration, factsOut, msgsIn []int, routeNs, wallNs, wireBytes int64, routed, deduped int64) {
	ss := Superstep{
		Step:            step,
		RouteNs:         routeNs,
		WallNs:          wallNs,
		BytesOnWire:     wireBytes,
		MessagesRouted:  routed,
		MessagesDeduped: deduped,
		Workers:         make([]WorkerStep, len(elapsed)),
	}
	var max, sum time.Duration
	active := 0
	for _, e := range elapsed {
		if e > max {
			max = e
		}
		if e > 0 {
			sum += e
			active++
		}
	}
	ss.MakespanNs = int64(max)
	if active > 0 && sum > 0 {
		ss.SkewRatio = float64(max) * float64(active) / float64(sum)
	}
	for i, e := range elapsed {
		ss.Workers[i] = WorkerStep{
			Worker:   i,
			BusyNs:   int64(e),
			IdleNs:   int64(max - e),
			FactsOut: factsOut[i],
			MsgsIn:   msgsIn[i],
		}
	}
	tl.Steps = append(tl.Steps, ss)
}

// Makespan is the BSP makespan: per superstep, the maximum compute time
// over the workers, summed over supersteps. On a machine with fewer cores
// than workers this — not wall-clock ERTime — is the faithful stand-in for
// the runtime on a real n-machine cluster (Options.Sequential keeps the
// workers from sharing cores while they are timed). The
// parallel-scalability experiments report it. It leaves out engine
// construction, routing and the wire in both modes; the measured time is
// the per-superstep WallNs (and BytesOnWire for the wire).
func (tl *Timeline) Makespan() time.Duration {
	var ns int64
	for _, ss := range tl.Steps {
		ns += ss.MakespanNs
	}
	return time.Duration(ns)
}

// JSON marshals the timeline (indented, stable field order).
func (tl *Timeline) JSON() ([]byte, error) {
	return json.MarshalIndent(tl, "", "  ")
}

// ParseTimeline is the inverse of JSON.
func ParseTimeline(data []byte) (*Timeline, error) {
	var tl Timeline
	if err := json.Unmarshal(data, &tl); err != nil {
		return nil, fmt.Errorf("dmatch: parse timeline: %w", err)
	}
	return &tl, nil
}

// ganttWidth is the character budget for the longest bar in Gantt output.
const ganttWidth = 40

// Gantt renders the timeline as an ASCII chart: one block per superstep,
// one bar per worker, '#' for busy time and '.' for barrier idle, scaled
// so the slowest worker of the slowest step spans ganttWidth characters.
func (tl *Timeline) Gantt() string {
	if tl == nil || len(tl.Steps) == 0 {
		return "(empty timeline)\n"
	}
	var maxNs int64
	for _, ss := range tl.Steps {
		if ss.MakespanNs > maxNs {
			maxNs = ss.MakespanNs
		}
	}
	if maxNs == 0 {
		maxNs = 1
	}
	var b strings.Builder
	for _, ss := range tl.Steps {
		wire := ""
		if ss.BytesOnWire > 0 {
			wire = fmt.Sprintf("  wire %dB", ss.BytesOnWire)
		}
		fmt.Fprintf(&b, "superstep %d  makespan %v  route %v  skew %.2f  msgs %d  deduped %d%s\n",
			ss.Step, time.Duration(ss.MakespanNs), time.Duration(ss.RouteNs),
			ss.SkewRatio, ss.MessagesRouted, ss.MessagesDeduped, wire)
		for _, w := range ss.Workers {
			busy := int(w.BusyNs * ganttWidth / maxNs)
			idle := int((w.BusyNs + w.IdleNs) * ganttWidth / maxNs)
			if w.BusyNs > 0 && busy == 0 {
				busy = 1
			}
			if idle < busy {
				idle = busy
			}
			fmt.Fprintf(&b, "  w%-3d |%s%s| busy %-12v out %-6d in %d\n",
				w.Worker,
				strings.Repeat("#", busy),
				strings.Repeat(".", idle-busy),
				time.Duration(w.BusyNs), w.FactsOut, w.MsgsIn)
		}
	}
	return b.String()
}
