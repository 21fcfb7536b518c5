package dmatch_test

import (
	"math"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// TestRoutingDedupGammaEquality is the tentpole's routing acceptance
// check: batched + deduped routing leaves Γ and the class partition
// byte-identical to the sequential chase at w ∈ {2, 4, 8}, and the
// sequential-route knob changes nothing observable (same Γ, same routing
// and dedup counts) — only how the inbox batches are built.
func TestRoutingDedupGammaEquality(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.04, Dup: 0.4, Seed: 11})
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

	for _, n := range []int{2, 4, 8} {
		conc, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: n})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := classSignature(conc.Classes()); got != want {
			t.Errorf("n=%d: concurrent routing classes diverge from sequential chase", n)
		}
		// The sequential-route knob must reach the same fixpoint; the
		// per-superstep message counts are not comparable across two
		// runs (the chase's delta order is map-iteration dependent, so
		// which representative of a merge chain gets routed varies).
		seqRoute, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{
			Workers:    n,
			Sequential: true,
		})
		if err != nil {
			t.Fatalf("n=%d sequential route: %v", n, err)
		}
		if got := classSignature(seqRoute.Classes()); got != want {
			t.Errorf("n=%d: sequential routing classes diverge from sequential chase", n)
		}
		// Every routed or suppressed delivery must appear in the
		// timeline, in both build modes.
		for _, res := range []*dmatch.Result{conc, seqRoute} {
			var routed, deduped int64
			for _, ss := range res.Timeline().Steps {
				routed += ss.MessagesRouted
				deduped += ss.MessagesDeduped
			}
			if routed != res.MessagesRouted || deduped != res.MessagesDeduped {
				t.Errorf("n=%d: timeline sums %d/%d, result %d/%d",
					n, routed, deduped, res.MessagesRouted, res.MessagesDeduped)
			}
			if res.MessagesDeduped < 0 {
				t.Errorf("n=%d: negative dedup count %d", n, res.MessagesDeduped)
			}
		}
	}
}

// TestWorkersExceedVirtualBlocks covers the degenerate end of the worker
// range: more workers than non-empty virtual blocks leaves some workers
// without a block, and the run must still converge to the sequential Γ with finite
// skew ratios (the zero-busy guard in the timeline).
func TestWorkersExceedVirtualBlocks(t *testing.T) {
	str := relation.TypeString
	a := func(n string) relation.Attribute { return relation.Attribute{Name: n, Type: str} }
	db := relation.MustDatabase(relation.MustSchema("R", "rk", a("rk"), a("x")))
	build := func() *relation.Dataset {
		d := relation.NewDataset(db)
		d.MustAppend("R", relation.S("r0"), relation.S("u"))
		d.MustAppend("R", relation.S("r1"), relation.S("u"))
		d.MustAppend("R", relation.S("r2"), relation.S("v"))
		return d
	}
	rules, err := rule.ParseResolved("same: R(a) ^ R(b) ^ a.x = b.x -> a.id = b.id\n", db)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := chase.New(build(), rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	seq.Run()
	want := classSignature(seq.Classes())

	res, err := dmatch.Run(build(), rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionStats.Blocks >= 32 {
		t.Fatalf("instance grew: %d blocks no longer below the worker count", res.PartitionStats.Blocks)
	}
	empty := 0
	for _, st := range res.WorkerStats {
		if st.Valuations == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Error("expected at least one idle worker without a block")
	}
	if got := classSignature(res.Classes()); got != want {
		t.Errorf("classes diverge with blockless workers present")
	}
	for _, ss := range res.Timeline().Steps {
		if math.IsNaN(ss.SkewRatio) || math.IsInf(ss.SkewRatio, 0) {
			t.Fatalf("superstep %d: skew ratio %v not finite", ss.Step, ss.SkewRatio)
		}
	}
}

// TestRebalanceDisabled: the negative threshold the repository benchmark
// pins still runs, migrates nothing, and converges to the single-engine Γ.
func TestRebalanceDisabled(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.03, Dup: 0.4, Seed: 7})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := chase.New(g.D, rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	seq.Run()
	res, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{
		Workers:       4,
		RebalanceSkew: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rebalances) != 0 {
		t.Errorf("rebalancing ran despite RebalanceSkew=-1: %d events", len(res.Rebalances))
	}
	if classSignature(res.Classes()) != classSignature(seq.Classes()) {
		t.Error("classes diverge from the single-engine chase under RebalanceSkew=-1")
	}
}

// TestRebalanceOffByDefault: the zero Options leave the assignment alone.
// On this instance the cell split's second superstep reads a skew of
// about 2.7 at 3 workers, which tripped the former default threshold of
// 1.5 in every run; a positive threshold is now an error, and the zero
// Options and RebalanceSkew -1 reach the same classes.
func TestRebalanceOffByDefault(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.2, Dup: 0.4, Seed: 7})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	res, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rebalances) != 0 {
		t.Errorf("default Options migrated blocks %d times", len(res.Rebalances))
	}
	if _, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 3, RebalanceSkew: 1e-9}); err == nil {
		t.Error("a positive threshold was accepted")
	}
	off, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 3, RebalanceSkew: -1})
	if err != nil {
		t.Fatal(err)
	}
	if classSignature(off.Classes()) != classSignature(res.Classes()) {
		t.Error("classes diverge between the zero Options and RebalanceSkew=-1")
	}
}
