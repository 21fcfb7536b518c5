package dmatch_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
)

// classSignature canonicalizes equivalence classes for comparison.
func classSignature(classes [][]relation.TID) string {
	var strsOut []string
	for _, c := range classes {
		ids := make([]int, len(c))
		for i, x := range c {
			ids[i] = int(x)
		}
		sort.Ints(ids)
		strsOut = append(strsOut, fmt.Sprint(ids))
	}
	sort.Strings(strsOut)
	return strings.Join(strsOut, ";")
}

// TestParallelEqualsSequential checks Proposition 8 on the running
// example: DMatch with any worker count converges to the same Γ as the
// sequential Match.
func TestParallelEqualsSequential(t *testing.T) {
	d, _ := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := chase.New(d, rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	seq.Run()
	want := classSignature(seq.Classes())

	for _, n := range []int{1, 2, 3, 4, 8} {
		d2, _ := datagen.PaperExample()
		rules2, err := datagen.PaperRules(d2.DB)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dmatch.Run(d2, rules2, mlpred.DefaultRegistry(), dmatch.Options{Workers: n})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := classSignature(res.Classes()); got != want {
			t.Errorf("n=%d: classes %s, want %s", n, got, want)
		}
	}
}

// TestParallelNoMQO checks the noMQO ablation reaches the same fixpoint.
func TestParallelNoMQO(t *testing.T) {
	d, _ := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	base, err := dmatch.Run(d, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	noMQO, err := dmatch.Run(d, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 4, NoMQO: true})
	if err != nil {
		t.Fatal(err)
	}
	if classSignature(base.Classes()) != classSignature(noMQO.Classes()) {
		t.Error("MQO and noMQO parallel runs disagree")
	}
	// Sharing must not use more hash functions than the baseline.
	if base.PartitionStats.HashFns > noMQO.PartitionStats.HashFns {
		t.Errorf("shared plan uses %d hash fns, noMQO %d",
			base.PartitionStats.HashFns, noMQO.PartitionStats.HashFns)
	}
}

// TestParallelDeterministicSequentialMode checks the Sequential debugging
// mode agrees with the concurrent mode.
func TestParallelDeterministicSequentialMode(t *testing.T) {
	d, _ := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := dmatch.Run(d, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := dmatch.Run(d, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 3, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if classSignature(conc.Classes()) != classSignature(seq.Classes()) {
		t.Error("sequential-mode and concurrent-mode runs disagree")
	}
}

// TestParallelEqualsSequentialTPCH checks Proposition 8 on a synthetic
// multi-relation workload with deep duplicate chains: the global fixpoint
// is independent of the worker count, including the MQO ablation.
func TestParallelEqualsSequentialTPCH(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.04, Dup: 0.4, Seed: 7})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := chase.New(g.D, rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	seq.Run()
	want := classSignature(seq.Classes())
	for _, n := range []int{2, 4, 7} {
		for _, noMQO := range []bool{false, true} {
			res, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(),
				dmatch.Options{Workers: n, NoMQO: noMQO})
			if err != nil {
				t.Fatalf("n=%d noMQO=%v: %v", n, noMQO, err)
			}
			if got := classSignature(res.Classes()); got != want {
				t.Errorf("n=%d noMQO=%v: parallel fixpoint differs from sequential", n, noMQO)
			}
		}
	}
}

// TestParallelEqualsSequentialTFACC repeats the check on the TFACC shape.
func TestParallelEqualsSequentialTFACC(t *testing.T) {
	g := datagen.TFACC(datagen.TFACCOptions{Scale: 0.04, Dup: 0.4, Seed: 9})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := chase.New(g.D, rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	seq.Run()
	want := classSignature(seq.Classes())
	for _, n := range []int{3, 6} {
		res, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: n})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := classSignature(res.Classes()); got != want {
			t.Errorf("n=%d: parallel fixpoint differs from sequential", n)
		}
	}
}

// TestMessagesOnlyFacts sanity-checks the BSP accounting: a run with one
// worker routes no messages and needs one superstep.
func TestMessagesOnlyFacts(t *testing.T) {
	d, _ := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dmatch.Run(d, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesRouted != 0 {
		t.Errorf("single worker routed %d messages, want 0", res.MessagesRouted)
	}
	if res.Supersteps != 1 {
		t.Errorf("single worker took %d supersteps, want 1", res.Supersteps)
	}
	if len(res.Matches) == 0 {
		t.Error("no matches deduced")
	}
}

// TestRunTimeAccounting: PartitionTime, BuildTime and ERTime are
// back-to-back phases of Run, so together they must cover (nearly) its
// whole wall time — before BuildTime, worker-engine construction and the
// master's set-up fell between the other two and were reported nowhere.
func TestRunTimeAccounting(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.5, Dup: 0.3, Seed: 1})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 2})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.BuildTime <= 0 {
		t.Errorf("BuildTime = %v, want > 0", res.BuildTime)
	}
	sum := res.PartitionTime + res.BuildTime + res.ERTime
	if sum > wall || float64(sum) < 0.9*float64(wall) {
		t.Errorf("partition %v + build %v + er %v = %v, want within [90%%, 100%%] of Run's wall time %v",
			res.PartitionTime, res.BuildTime, res.ERTime, sum, wall)
	}
}
