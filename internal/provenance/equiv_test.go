package provenance_test

// Provenance ≡ reference: for random small instances, every proof
// extracted from the production justification log must replay through
// complexity.VerifyProof — the independent polynomial verifier of
// Theorem 2(1) — and the log must entail exactly the pairs the
// brute-force NaiveChase matches. Checked under the default engine and the
// BSP engine with w ≥ 2; the drain forced through
// its buffered fan-out on every batch is a test-only switch of
// internal/chase and has the same check there
// (TestProofReplaysUnderBatchedDrain).

import (
	"fmt"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/complexity"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/mlpred"
	"dcer/internal/provenance"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// replayProof converts a proof extracted from the production log into the
// verifier's fact sequence and replays it. Setup id-value duplicates need
// no step (the verifier pre-merges them from D); a surviving external
// (arrival) record means the derivation is missing and the proof is
// unsound.
func replayProof(t *testing.T, tag string, d *relation.Dataset, rules []*rule.Rule,
	reg *mlpred.Registry, proof []provenance.Entry, a, b relation.TID) {
	t.Helper()
	var facts []complexity.Fact
	for _, en := range proof {
		switch en.Origin {
		case provenance.OriginIDDup:
			continue
		case provenance.OriginExternal:
			t.Fatalf("%s: proof of (%d,%d) contains an unresolved external record: %+v", tag, a, b, en)
		}
		if en.Rule == "" {
			t.Fatalf("%s: proof of (%d,%d) has a rule-less step: %+v", tag, a, b, en)
		}
		facts = append(facts, complexity.Fact{
			IsMatch:   en.Fact.Kind == provenance.KindMatch,
			A:         en.Fact.A,
			B:         en.Fact.B,
			Model:     en.Fact.Model,
			Rule:      en.Rule,
			Valuation: en.Valuation,
		})
	}
	ok, err := complexity.VerifyProof(d, rules, reg, facts, [2]relation.TID{a, b})
	if err != nil {
		t.Fatalf("%s: proof of (%d,%d) rejected: %v\nproof: %+v", tag, a, b, err, proof)
	}
	if !ok {
		t.Fatalf("%s: proof of (%d,%d) does not entail the target\nproof: %+v", tag, a, b, proof)
	}
}

// TestProofReplaysAgainstVerifier is the single-engine property: each
// matched pair gets a proof from the log that the independent verifier
// accepts, and unmatched pairs get ErrNotEntailed.
func TestProofReplaysAgainstVerifier(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	seeds := int64(20)
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(0); seed < seeds; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		naive, err := complexity.NaiveChase(d, rules, reg)
		if err != nil {
			t.Fatalf("seed %d: naive: %v", seed, err)
		}
		log := provenance.NewLog(0)
		eng, err := chase.New(d, rules, reg, chase.Options{ShareIndexes: true, Provenance: log})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		eng.Run()
		tag := fmt.Sprintf("seed %d", seed)
		if !log.Complete() {
			t.Fatalf("%s: log dropped %d entries", tag, log.Dropped())
		}
		for i := 0; i < d.Size(); i++ {
			for j := i + 1; j < d.Size(); j++ {
				a, b := relation.TID(i), relation.TID(j)
				proof, err := eng.Proof(a, b)
				if !naive.Same(a, b) {
					if err != provenance.ErrNotEntailed {
						t.Fatalf("%s: unmatched (%d,%d): err = %v, want ErrNotEntailed", tag, a, b, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: matched (%d,%d) has no proof: %v", tag, a, b, err)
				}
				replayProof(t, tag, d, rules, reg, proof, a, b)
			}
		}
	}
}

// TestDMatchProofEveryPair is the parallel acceptance property: on a
// DMatch run with w=4 workers and provenance on, every pair in Γ yields a
// proof from the stitched cross-worker log — no NaiveChase involved — and
// each proof replays through the verifier.
func TestDMatchProofEveryPair(t *testing.T) {
	reg := mlpred.DefaultRegistry()
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(300); seed < 300+seeds; seed++ {
		d, rules, err := datagen.RandomInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		workers := 4
		if seed%3 == 0 {
			workers = 2
		}
		res, err := dmatch.Run(d, rules, reg, dmatch.Options{Workers: workers, Provenance: true})
		if err != nil {
			t.Fatalf("seed %d: dmatch: %v", seed, err)
		}
		log := res.Provenance()
		if log == nil || !log.Complete() {
			t.Fatalf("seed %d: merged log missing or incomplete", seed)
		}
		tag := fmt.Sprintf("seed %d w=%d", seed, workers)
		for _, f := range res.Matches {
			proof, err := res.Proof(f.A, f.B)
			if err != nil {
				t.Fatalf("%s: matched pair (%d,%d) has no proof: %v", tag, f.A, f.B, err)
			}
			replayProof(t, tag, d, rules, reg, proof, f.A, f.B)
		}
		// Entailment must agree with the reference chase in both directions.
		naive, err := complexity.NaiveChase(d, rules, reg)
		if err != nil {
			t.Fatalf("seed %d: naive: %v", seed, err)
		}
		for i := 0; i < d.Size(); i++ {
			for j := i + 1; j < d.Size(); j++ {
				a, b := relation.TID(i), relation.TID(j)
				_, err := res.Proof(a, b)
				if naive.Same(a, b) && err != nil {
					t.Fatalf("%s: naive matches (%d,%d) but log yields %v", tag, a, b, err)
				}
				if !naive.Same(a, b) && err != provenance.ErrNotEntailed {
					t.Fatalf("%s: naive rejects (%d,%d) but log yields %v", tag, a, b, err)
				}
			}
		}
	}
}
