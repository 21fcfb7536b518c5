package experiments_test

import (
	"strconv"
	"strings"
	"testing"

	"dcer/internal/experiments"
)

// tiny keeps the drivers fast enough for the regular test run.
var tiny = experiments.Config{Scale: 0.04, Workers: 4, Seed: 1}

func parseF(t *testing.T, cell string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q is not a number: %v", cell, err)
	}
	return f
}

// TestTableVIShape checks the Table VI driver emits five Dup rows with
// plausible accuracy on both datasets.
func TestTableVIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver (TableVI) is minutes-long; run without -short")
	}
	tb := experiments.TableVI(tiny)
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			if f := parseF(t, cell); f < 0.7 || f > 1 {
				t.Errorf("accuracy %v out of the plausible band", f)
			}
		}
	}
	if !strings.Contains(tb.String(), "Dup") {
		t.Error("table rendering lacks header")
	}
}

// TestFig6ABShape checks the ablation ordering the paper reports: DMatch
// beats both DMatch_C and DMatch_D, which beat nothing in particular but
// the full engine must also beat the distributed baselines.
func TestFig6ABShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver (Fig6AB) is minutes-long; run without -short")
	}
	tb := experiments.Fig6AB(tiny)
	f := map[string][2]float64{}
	for _, row := range tb.Rows {
		f[row[0]] = [2]float64{parseF(t, row[1]), parseF(t, row[2])}
	}
	for _, col := range []int{0, 1} {
		full := f["DMatch"][col]
		if full <= f["DMatch_C"][col] {
			t.Errorf("col %d: DMatch (%.3f) not above DMatch_C (%.3f)", col, full, f["DMatch_C"][col])
		}
		if full < f["DMatch_D"][col] {
			t.Errorf("col %d: DMatch (%.3f) below DMatch_D (%.3f)", col, full, f["DMatch_D"][col])
		}
		for _, b := range []string{"Dedoop", "DisDedup", "SparkER"} {
			if full <= f[b][col] {
				t.Errorf("col %d: DMatch (%.3f) not above %s (%.3f)", col, full, b, f[b][col])
			}
		}
	}
}

// TestPartitioningShape checks the Exp-2 driver emits one row per worker
// count with positive message counts.
func TestPartitioningShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver (Partitioning) is minutes-long; run without -short")
	}
	tb := experiments.Partitioning(tiny)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if msgs, _ := strconv.Atoi(row[4]); msgs <= 0 {
			t.Errorf("n=%s: no messages routed", row[0])
		}
	}
}

// TestCaseStudyShape checks the Exp-4 driver reports one row per rule and
// at least one derivation deeper than two levels (genuine recursion).
func TestCaseStudyShape(t *testing.T) {
	tb := experiments.CaseStudy(experiments.Config{Scale: 0.025, Workers: 4, Seed: 1})
	if len(tb.Rows) < 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	deep := false
	for _, row := range tb.Rows {
		if len(row) == 4 && row[3] != "" {
			if d, _ := strconv.Atoi(row[3]); d >= 3 {
				deep = true
			}
		}
	}
	if !deep {
		t.Error("no rule reached depth ≥ 3")
	}
}

// TestDenormShape checks the Exp-1(5) driver: the join is materialized and
// DMatch's order accuracy beats the universal-relation baselines.
func TestDenormShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver (Denorm) is minutes-long; run without -short")
	}
	tb := experiments.Denorm(tiny)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var dmatchF, bestBaseline float64
	for _, row := range tb.Rows {
		if row[3] == "-" {
			continue
		}
		f := parseF(t, row[3])
		if row[0] == "DMatch" {
			dmatchF = f
		} else if f > bestBaseline {
			bestBaseline = f
		}
	}
	if dmatchF <= bestBaseline {
		t.Errorf("DMatch order F %.3f not above universal-relation baselines %.3f", dmatchF, bestBaseline)
	}
}
