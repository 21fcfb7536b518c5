package dmatch

import (
	"math"
	"testing"
	"time"
)

// TestRecordZeroBusyGuard is the regression test for the skew-ratio
// division hazard: a superstep in which no worker reports busy time (no
// worker owning a cell, or every worker skipped on an empty inbox) must record
// a zero skew ratio, not NaN/Inf.
func TestRecordZeroBusyGuard(t *testing.T) {
	var tl Timeline
	tl.Workers = 3
	elapsed := make([]time.Duration, 3)
	facts := make([]int, 3)
	msgs := make([]int, 3)
	tl.record(0, elapsed, facts, msgs, 0, 0, 0, 0, 0)
	ss := tl.Steps[0]
	if ss.SkewRatio != 0 {
		t.Fatalf("zero-busy superstep has skew %v, want 0", ss.SkewRatio)
	}
	if math.IsNaN(ss.SkewRatio) || math.IsInf(ss.SkewRatio, 0) {
		t.Fatalf("skew ratio %v not finite", ss.SkewRatio)
	}
	if ss.MakespanNs != 0 {
		t.Fatalf("zero-busy superstep has makespan %d", ss.MakespanNs)
	}

	// One idle worker among busy workers: skew stays finite and only
	// active workers enter the mean.
	elapsed = []time.Duration{2 * time.Millisecond, 0, 2 * time.Millisecond}
	tl.record(1, elapsed, facts, msgs, 0, 0, 0, 0, 0)
	ss = tl.Steps[1]
	if math.IsNaN(ss.SkewRatio) || math.IsInf(ss.SkewRatio, 0) {
		t.Fatalf("skew ratio %v not finite with one idle worker", ss.SkewRatio)
	}
	if ss.SkewRatio != 1 {
		t.Fatalf("two equally busy workers: skew %v, want 1 (idle worker excluded)", ss.SkewRatio)
	}
}
