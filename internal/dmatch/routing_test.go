package dmatch_test

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
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
// range: more workers than non-empty virtual blocks leaves some fragments
// empty, and the run must still converge to the sequential Γ with finite
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
		t.Error("expected at least one idle worker with an empty fragment")
	}
	if got := classSignature(res.Classes()); got != want {
		t.Errorf("classes diverge with empty fragments present")
	}
	for _, ss := range res.Timeline().Steps {
		if math.IsNaN(ss.SkewRatio) || math.IsInf(ss.SkewRatio, 0) {
			t.Fatalf("superstep %d: skew ratio %v not finite", ss.Step, ss.SkewRatio)
		}
	}
}

// TestAdaptiveRebalance forces the skew-adaptive scheduler on (threshold
// below the minimum possible skew, no makespan floor) and checks a
// migration leaves Γ identical to the sequential chase and records
// well-formed events.
func TestAdaptiveRebalance(t *testing.T) {
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

	dmatch.NoRebalanceMinStep(t)
	res, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{
		Workers:       4,
		RebalanceSkew: 0.5, // below 1.0: every eligible superstep triggers
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := classSignature(res.Classes()); got != want {
		t.Errorf("classes diverge after adaptive rebalancing")
	}
	if res.Supersteps > 1 && len(res.Rebalances) == 0 {
		t.Skip("no migration triggered (observed costs already balanced)")
	}
	if len(res.Rebalances) > dmatch.MaxRebalances {
		t.Errorf("%d migrations exceed the budget of %d", len(res.Rebalances), dmatch.MaxRebalances)
	}
	// WorkerStats keep the work of the engines a migration retired: the
	// migrated run did everything the unmigrated one did, and then some.
	base, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 4, RebalanceSkew: -1})
	if err != nil {
		t.Fatal(err)
	}
	valuations := func(r *dmatch.Result) (sum int64) {
		for _, st := range r.WorkerStats {
			sum += st.Valuations
		}
		return sum
	}
	if got, floor := valuations(res), valuations(base); got < floor {
		t.Errorf("summed Valuations %d after %d migration(s), below the %d of the same run without: retired engines' work was dropped",
			got, len(res.Rebalances), floor)
	}
	for i, ev := range res.Rebalances {
		if ev.BlocksMoved <= 0 || ev.WorkersRebuilt <= 0 {
			t.Errorf("event %d: moved %d blocks, rebuilt %d workers", i, ev.BlocksMoved, ev.WorkersRebuilt)
		}
		if ev.SkewBefore < 0.5 {
			t.Errorf("event %d: skew %v below the trigger threshold", i, ev.SkewBefore)
		}
		if ev.Step < 0 || ev.Step >= res.Supersteps {
			t.Errorf("event %d: step %d outside run of %d supersteps", i, ev.Step, res.Supersteps)
		}
		if ev.RebuildNs <= 0 {
			t.Errorf("event %d: non-positive rebuild time %d", i, ev.RebuildNs)
		}
	}
}

// TestRebalanceDisabled checks the negative-threshold escape hatch.
func TestRebalanceDisabled(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.03, Dup: 0.4, Seed: 7})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	dmatch.NoRebalanceMinStep(t)
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
}

// TestRebalanceDebugProvider checks the dmatch_rebalance provider is
// registered on the metrics registry and exposed via /debug/dcer.
func TestRebalanceDebugProvider(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.03, Dup: 0.4, Seed: 9})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	dmatch.NoRebalanceMinStep(t)
	if _, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{
		Workers:       4,
		Metrics:       reg,
		RebalanceSkew: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/debug/dcer")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Debug map[string]json.RawMessage `json:"debug"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("debug/dcer is not JSON: %v", err)
	}
	raw, ok := doc.Debug["dmatch_rebalance"]
	if !ok {
		t.Fatal("no dmatch_rebalance debug provider on /debug/dcer")
	}
	var events []dmatch.RebalanceEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("dmatch_rebalance payload does not decode as []RebalanceEvent: %v", err)
	}
	if _, ok := doc.Debug["dmatch_timeline"]; !ok {
		t.Fatal("dmatch_timeline provider missing alongside dmatch_rebalance")
	}
}
