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

// TestSuperstepLimit: running out of MaxSupersteps with inboxes still
// full is an error, not a partial Γ reported as success.
func TestSuperstepLimit(t *testing.T) {
	for _, lk := range bothLinks {
		t.Run(lk.name, func(t *testing.T) {
			// Migrations off: a timing-fired one adds supersteps.
			opts := dmatch.Options{Workers: 2, RebalanceSkew: -1, MaxSupersteps: 1}
			res, err := lk.run(t, tpchSmall, opts, nil)
			if !errors.Is(err, dmatch.ErrSuperstepLimit) {
				t.Fatalf("MaxSupersteps=1: got (%v, %v), want ErrSuperstepLimit", res, err)
			}
			// A limit the run fits in is not an error.
			opts.MaxSupersteps = 0
			full, err := lk.run(t, tpchSmall, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			opts.MaxSupersteps = full.Supersteps
			if _, err := lk.run(t, tpchSmall, opts, nil); err != nil {
				t.Fatalf("MaxSupersteps=%d (what the run takes): %v", full.Supersteps, err)
			}
		})
	}
}

// forcedRebalance makes every eligible superstep migrate: a threshold
// below any positive skew and no makespan floor.
func forcedRebalance(t *testing.T, workers int) dmatch.Options {
	dmatch.NoRebalanceMinStep(t)
	return dmatch.Options{Workers: workers, RebalanceSkew: 1e-9}
}

// TestDistributedRebalance: the skew-adaptive scheduler runs over TCP
// links too — the migrated workers rebuild from an Assign carrying the
// replay — and Γ stays the single-engine fixpoint.
func TestDistributedRebalance(t *testing.T) {
	res, err := runTCP(t, tpchSmall, forcedRebalance(t, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rebalances) == 0 {
		t.Fatal("forced rebalancing recorded no RebalanceEvent over TCP")
	}
	for i, ev := range res.Rebalances {
		if ev.BlocksMoved <= 0 || ev.WorkersRebuilt <= 0 {
			t.Errorf("event %d: moved %d blocks, rebuilt %d workers", i, ev.BlocksMoved, ev.WorkersRebuilt)
		}
	}
	if got := classSignature(res.Classes()); got != sequentialClasses(t, tpchSmall) {
		t.Error("classes diverge from the single-engine chase after a distributed rebalance")
	}
}

// TestDistributedRebalanceAndCrash drives both reassign triggers in one
// run: forced migrations, and worker 1 dying after its first or second
// delta (before and after the first migration). The dead slot must never
// get blocks back, and Γ must not move.
func TestDistributedRebalanceAndCrash(t *testing.T) {
	want := sequentialClasses(t, tpchSmall)
	for _, after := range []int{1, 2} {
		res, err := runTCP(t, tpchSmall, forcedRebalance(t, 3), map[int]int{1: after})
		if err != nil {
			t.Fatalf("CrashAfter=%d: %v", after, err)
		}
		if len(res.Recoveries) != 1 || res.Recoveries[0].Worker != 1 {
			t.Fatalf("CrashAfter=%d: recoveries %+v, want exactly one, of worker 1", after, res.Recoveries)
		}
		if got := classSignature(res.Classes()); got != want {
			t.Errorf("CrashAfter=%d: classes diverge from the single-engine chase", after)
		}
		for _, ss := range res.Timeline().Steps[res.Recoveries[0].Step+1:] {
			if w := ss.Workers[1]; w.MsgsIn != 0 || w.FactsOut != 0 {
				t.Errorf("CrashAfter=%d: dead worker 1 active in superstep %d: %+v", after, ss.Step, w)
			}
		}
	}
}

// TestRecoveryMovesOnlyOrphans: a death reassigns the dead worker's blocks
// and nothing else, so only the survivors that adopt one rebuild and
// replay — the others keep their engines.
func TestRecoveryMovesOnlyOrphans(t *testing.T) {
	const n = 8
	res, err := runTCP(t, tpchSmall, dmatch.Options{Workers: n, RebalanceSkew: -1}, map[int]int{1: 1})
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
// similarity join whose index it builds over its own fragment scope. Γ is
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
