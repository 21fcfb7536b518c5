package dcer_test

import (
	"errors"
	"strings"
	"testing"

	"dcer"
	"dcer/internal/datagen"
)

// TestExplainDeepMatch renders the proof of the paper's deep match
// (t1, t3): it must mention the prerequisite product and shop rules before
// concluding the customer match.
func TestExplainDeepMatch(t *testing.T) {
	d, l := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := dcer.Explain(d, rules, dcer.DefaultClassifiers(), l["t1"].GID, l["t3"].GID)
	if err != nil {
		t.Fatal(err)
	}
	if ex == nil {
		t.Fatal("no explanation for a true match")
	}
	text := ex.Render(d)
	for _, want := range []string{"phi2", "phi3", "phi4", "Customers(c1) = Customers(c3)"} {
		if !strings.Contains(text, want) {
			t.Errorf("explanation missing %q:\n%s", want, text)
		}
	}
	// The non-match (t1, t4) must yield the sentinel, not (nil, nil).
	none, err := dcer.Explain(d, rules, dcer.DefaultClassifiers(), l["t1"].GID, l["t4"].GID)
	if !errors.Is(err, dcer.ErrNoMatch) {
		t.Errorf("non-match: err = %v, want ErrNoMatch", err)
	}
	if none != nil {
		t.Error("explanation produced for a non-match")
	}
}

// TestExplainParallelDeepMatch extracts the same proof from a DMatch run:
// the derivation chain crosses workers, so the stitched log must supply
// it without falling back to the reference chase.
func TestExplainParallelDeepMatch(t *testing.T) {
	d, l := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := dcer.ExplainParallel(d, rules, dcer.DefaultClassifiers(),
		dcer.ParallelOptions{Workers: 2}, l["t1"].GID, l["t3"].GID)
	if err != nil {
		t.Fatal(err)
	}
	text := ex.Render(d)
	if !strings.Contains(text, "Customers(c1) = Customers(c3)") {
		t.Errorf("parallel explanation missing the target match:\n%s", text)
	}
	// Every step of a proof extracted from the production log carries
	// its origin.
	for _, st := range ex.Steps {
		if st.Origin == "" {
			t.Fatalf("step without origin:\n%s", text)
		}
	}
	_, err = dcer.ExplainParallel(d, rules, dcer.DefaultClassifiers(),
		dcer.ParallelOptions{Workers: 2}, l["t1"].GID, l["t4"].GID)
	if !errors.Is(err, dcer.ErrNoMatch) {
		t.Errorf("parallel non-match: err = %v, want ErrNoMatch", err)
	}
}

// TestExplainFromLog reuses the log of a run the caller already executed:
// no chase is re-run, and a missing log yields the incompleteness
// sentinel rather than a silent nil.
func TestExplainFromLog(t *testing.T) {
	d, l := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	log := dcer.NewProvenanceLog(0)
	eng, err := dcer.NewEngine(d, rules, dcer.DefaultClassifiers(),
		dcer.EngineOptions{ShareIndexes: true, Provenance: log})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	ex, err := dcer.ExplainFromLog(log, d, l["t1"].GID, l["t3"].GID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Steps) == 0 {
		t.Fatal("empty proof from a recorded log")
	}
	if _, err := dcer.ExplainFromLog(nil, d, l["t1"].GID, l["t3"].GID); !errors.Is(err, dcer.ErrProvenanceIncomplete) {
		t.Errorf("nil log: err = %v, want ErrProvenanceIncomplete", err)
	}
}
