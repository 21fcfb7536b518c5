package dmatch_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// loader produces one process's own copy of a run's inputs.
type loader func() (*relation.Dataset, []*rule.Rule, error)

func paperLoader() (*relation.Dataset, []*rule.Rule, error) {
	d, _ := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	return d, rules, err
}

func tpchLoader(o datagen.TPCHOptions) loader {
	return func() (*relation.Dataset, []*rule.Rule, error) {
		g := datagen.TPCH(o)
		rules, err := g.Rules()
		return g.D, rules, err
	}
}

// bothLinks is the table the one-loop tests run over: the same Options
// through Run (loopback links) and through RunDistributed against
// goroutine workers that each load their own inputs (TCP links). crash
// maps a worker id to its injected CrashAfter; the loopback arm has no
// fault injection and ignores it.
var bothLinks = []struct {
	name string
	run  func(t *testing.T, load loader, opts dmatch.Options, crash map[int]int) (*dmatch.Result, error)
}{
	{"loopback", func(t *testing.T, load loader, opts dmatch.Options, _ map[int]int) (*dmatch.Result, error) {
		d, rules, err := load()
		if err != nil {
			t.Fatal(err)
		}
		return dmatch.Run(d, rules, mlpred.DefaultRegistry(), opts)
	}},
	{"tcp", runTCP},
}

// runTCP reaps the worker goroutines before it returns, and fails the
// test on a worker error the master did not cause.
func runTCP(t *testing.T, load loader, opts dmatch.Options, crash map[int]int) (*dmatch.Result, error) {
	d, rules, err := load()
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, opts.Workers)
	res, err := dmatch.RunDistributed(d, rules, mlpred.DefaultRegistry(), opts, dmatch.DistOptions{
		Spawn:            spawnWorkersOver(load, crash, errs),
		HeartbeatTimeout: 5 * time.Second,
	})
	for i := 0; i < opts.Workers; i++ {
		if werr := <-errs; werr != nil && err == nil && !errors.Is(werr, dmatch.ErrInjectedCrash) {
			t.Errorf("worker: %v", werr)
		}
	}
	return res, err
}

// sequentialClasses is the oracle: the single-engine chase over load's
// inputs.
func sequentialClasses(t *testing.T, load loader) string {
	t.Helper()
	d, rules, err := load()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := chase.New(d, rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	seq.Run()
	return classSignature(seq.Classes())
}

var tpchSmall = tpchLoader(datagen.TPCHOptions{Scale: 0.04, Dup: 0.4, Seed: 7})

// TestSuperstepLimit: running out of supersteps with inboxes still full
// is an error, not a partial Γ reported as success.
func TestSuperstepLimit(t *testing.T) {
	for _, lk := range bothLinks {
		t.Run(lk.name, func(t *testing.T) {
			opts := dmatch.Options{Workers: 2}
			full, err := lk.run(t, tpchSmall, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			// A limit the run fits in is not an error.
			dmatch.LimitSupersteps(t, full.Supersteps)
			if _, err := lk.run(t, tpchSmall, opts, nil); err != nil {
				t.Fatalf("limit %d (what the run takes): %v", full.Supersteps, err)
			}
			dmatch.LimitSupersteps(t, 1)
			res, err := lk.run(t, tpchSmall, opts, nil)
			if !errors.Is(err, dmatch.ErrSuperstepLimit) {
				t.Fatalf("limit 1: got (%v, %v), want ErrSuperstepLimit", res, err)
			}
		})
	}
}

// TestNoMQOReachesWorkers: NoMQO crosses to the worker's engine on both
// links (bit 0 of Assign's flag word over TCP). With one worker, rules
// over the same relations get the same scope, so the shared engine builds
// their indexes once and a NoMQO engine once per rule. A link that drops
// the bit builds the shared engine and fails here.
func TestNoMQOReachesWorkers(t *testing.T) {
	indexBuilds := func(res *dmatch.Result) (n int) {
		for _, st := range res.WorkerStats {
			n += st.IndexBuilds
		}
		return n
	}
	for _, lk := range bothLinks {
		t.Run(lk.name, func(t *testing.T) {
			shared, err := lk.run(t, paperLoader, dmatch.Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			noMQO, err := lk.run(t, paperLoader, dmatch.Options{Workers: 1, NoMQO: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s, u := indexBuilds(shared), indexBuilds(noMQO); u <= s {
				t.Errorf("NoMQO run built %d indexes, shared run %d: the worker engine shared indexes", u, s)
			}
		})
	}
}

// TestRecoveryMovesOnlyOrphans: a death reassigns the dead worker's blocks
// and nothing else, so only the survivors that adopt one rebuild and
// replay — the others keep their engines.
func TestRecoveryMovesOnlyOrphans(t *testing.T) {
	const n = 8
	res, err := runTCP(t, tpchSmall, dmatch.Options{Workers: n}, map[int]int{1: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("recoveries %+v, want exactly one", res.Recoveries)
	}
	rec := res.Recoveries[0]
	t.Logf("%+v", rec)
	if rec.BlocksMoved == 0 || rec.WorkersRebuilt == 0 || rec.WorkersRebuilt > rec.BlocksMoved || rec.WorkersRebuilt >= n-1 {
		t.Errorf("recovery %+v: want 1..min(BlocksMoved, %d) survivors rebuilt", rec, n-2)
	}
	if got := classSignature(res.Classes()); got != sequentialClasses(t, tpchSmall) {
		t.Error("classes diverge from the single-engine chase after the recovery")
	}
}

// TestRebalanceSkewRejected: skew rebalancing is gone, so a positive
// RebalanceSkew is an error before any worker starts — Run is handed no
// inputs at all, and RunDistributed a Spawn that fails the test — while 0
// and -1 run on both links with Rebalances empty.
func TestRebalanceSkewRejected(t *testing.T) {
	skewed := dmatch.Options{Workers: 2, RebalanceSkew: 0.5}
	if _, err := dmatch.Run(nil, nil, nil, skewed); err == nil {
		t.Error("Run accepted RebalanceSkew 0.5")
	}
	spawn := func(int, string) error {
		t.Error("RunDistributed spawned a worker under RebalanceSkew 0.5")
		return nil
	}
	if _, err := dmatch.RunDistributed(nil, nil, nil, skewed, dmatch.DistOptions{Spawn: spawn}); err == nil {
		t.Error("RunDistributed accepted RebalanceSkew 0.5")
	}
	for _, skew := range []float64{0, -1} {
		for _, lk := range bothLinks {
			res, err := lk.run(t, paperLoader, dmatch.Options{Workers: 2, RebalanceSkew: skew}, nil)
			if err != nil {
				t.Fatalf("%s, RebalanceSkew %v: %v", lk.name, skew, err)
			}
			if len(res.Rebalances) != 0 {
				t.Errorf("%s, RebalanceSkew %v: %d rebalances", lk.name, skew, len(res.Rebalances))
			}
		}
	}
}

// TestLoopbackBuildFailure: an in-process worker whose engine cannot be
// built (the registry lacks the rules' classifiers) is a dead link like
// any other; with every worker failing the run must return the cause, not
// hang waiting for deltas.
func TestLoopbackBuildFailure(t *testing.T) {
	d, rules, err := tpchSmall()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := dmatch.Run(d, rules, mlpred.NewRegistry(), dmatch.Options{Workers: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("engines could not be built but the run reported success")
		}
		// The cause stays on the chain for errors.Is/As.
		cause := err
		for u := errors.Unwrap(cause); u != nil; u = errors.Unwrap(cause) {
			cause = u
		}
		if !strings.HasPrefix(cause.Error(), "mlpred: no classifier") {
			t.Errorf("error %q does not wrap the build failure (innermost: %q)", err, cause)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run hangs when its workers cannot build their engines")
	}
}

// TestSimilarityJoinThroughDMatch: TFACC's rule fa joins its advisories by
// nothing but an ML predicate, so every worker engine binds them through a
// similarity join over its process's index set. Γ is
// the single engine's over both links, and the workers together take fewer
// classifier decisions than one scan per advisory would — the join fired.
func TestSimilarityJoinThroughDMatch(t *testing.T) {
	load := func() (*relation.Dataset, []*rule.Rule, error) {
		g := datagen.TFACC(datagen.TFACCOptions{Scale: 0.1, Dup: 0.3, Seed: 3})
		rules, err := g.Rules()
		return g.D, rules, err
	}
	d, _, err := load()
	if err != nil {
		t.Fatal(err)
	}
	advisories := int64(len(d.Relation("advisory").Tuples))
	want := sequentialClasses(t, load)
	for _, lk := range bothLinks {
		t.Run(lk.name, func(t *testing.T) {
			res, err := lk.run(t, load, dmatch.Options{Workers: 3}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := classSignature(res.Classes()); got != want {
				t.Error("classes diverge from the single-engine chase")
			}
			var calls int64
			for _, ws := range res.WorkerStats {
				calls += ws.MLCacheMiss
			}
			t.Logf("%d advisories, %d classifier decisions", advisories, calls)
			if calls >= advisories*(advisories-1)/2 {
				t.Errorf("%d classifier decisions for %d advisories: fa scanned", calls, advisories)
			}
		})
	}
}
