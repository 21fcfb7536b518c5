package dcer

import (
	"errors"
	"fmt"
	"strings"

	"dcer/internal/chase"
	"dcer/internal/provenance"
	"dcer/internal/relation"
)

// ErrNoMatch reports that the queried pair is not matched under the rules
// — there is no proof to extract. It is distinct from
// ErrProvenanceIncomplete ("the pair may match, but no derivation was
// recorded"), which Explain and ExplainParallel cannot return: they
// capture into unbounded logs.
var ErrNoMatch = errors.New("dcer: tuples do not match under the rules")

// ErrProvenanceIncomplete reports that a justification log cannot supply
// a full proof: capture was off, or the bounded log overflowed and
// dropped derivations.
var ErrProvenanceIncomplete = provenance.ErrIncomplete

// Explanation is a human-readable proof that two tuples denote the same
// entity: the ordered rule applications (with their valuations) that
// derive the match, ending with the target pair. It is the proof graph of
// the paper's Theorem 2 rendered for people.
type Explanation struct {
	Target [2]TID
	Steps  []ExplanationStep
}

// ExplanationStep is one rule application in a proof.
type ExplanationStep struct {
	Rule      string
	IsMatch   bool
	Model     string
	A, B      TID
	Valuation []TID
	// Origin says how the fact entered Γ ("rule", "dep", "external",
	// "id-dup").
	Origin string
	// Checks are the ML predicate outcomes the step consumed directly
	// from the classifiers.
	Checks []MLCheck
	// Worker and Superstep locate the derivation in a parallel run
	// (-1/0 for a sequential engine).
	Worker    int
	Superstep int
}

// Explain derives why tuples a and b match under the rules by running the
// production chase with justification capture into an unbounded log and
// extracting the minimal proof from it. It returns ErrNoMatch when the
// pair does not match.
func Explain(d *Dataset, rules []*Rule, reg *ClassifierRegistry, a, b TID) (*Explanation, error) {
	log := provenance.NewLog(-1)
	eng, err := chase.New(d, rules, reg, chase.Options{ShareIndexes: true, Provenance: log})
	if err != nil {
		return nil, err
	}
	eng.Run()
	ex, err := explainFromProof(log.Proof([2]relation.TID{a, b}, eng.BaseEquivalence()))
	if err != nil {
		return nil, err
	}
	ex.Target = [2]TID{a, b}
	return ex, nil
}

// ExplainParallel answers the same question from a parallel run: it
// executes DMatch with per-worker justification capture and extracts the
// proof — including derivation chains that cross workers — from the
// stitched global log. opts.Provenance is forced on and every worker's
// log is unbounded.
func ExplainParallel(d *Dataset, rules []*Rule, reg *ClassifierRegistry, opts ParallelOptions, a, b TID) (*Explanation, error) {
	opts.Provenance, opts.ProvenanceLimit = true, -1
	res, err := MatchParallel(d, rules, reg, opts)
	if err != nil {
		return nil, err
	}
	ex, err := explainFromProof(res.Proof(a, b))
	if err != nil {
		return nil, err
	}
	ex.Target = [2]TID{a, b}
	return ex, nil
}

// ExplainFromLog extracts a proof of (a, b) from an existing justification
// log — e.g. the log of an engine or DMatch run the caller already
// executed with provenance on — without re-running any chase. It returns
// ErrNoMatch for unmatched pairs and ErrProvenanceIncomplete when the log
// cannot supply the full derivation.
func ExplainFromLog(log *ProvenanceLog, d *Dataset, a, b TID) (*Explanation, error) {
	ex, err := explainFromProof(log.Proof([2]relation.TID{a, b}, chase.BuildEquivalence(d)))
	if err != nil {
		return nil, err
	}
	ex.Target = [2]TID{a, b}
	return ex, nil
}

// explainFromProof converts an extracted proof to an Explanation,
// translating provenance errors (the target is filled in by the caller).
func explainFromProof(proof []provenance.Entry, err error) (*Explanation, error) {
	if errors.Is(err, provenance.ErrNotEntailed) {
		return nil, ErrNoMatch
	}
	if err != nil {
		return nil, err
	}
	ex := &Explanation{}
	for _, en := range proof {
		ex.Steps = append(ex.Steps, ExplanationStep{
			Rule:      en.Rule,
			IsMatch:   en.Fact.Kind == provenance.KindMatch,
			Model:     en.Fact.Model,
			A:         en.Fact.A,
			B:         en.Fact.B,
			Valuation: en.Valuation,
			Origin:    en.Origin.String(),
			Checks:    en.Checks,
			Worker:    en.Worker,
			Superstep: en.Step,
		})
	}
	return ex, nil
}

// Render formats the explanation against the dataset, one line per step,
// identifying tuples by relation name and id value. Steps derived in a
// parallel run are annotated with their worker and superstep.
func (e *Explanation) Render(d *Dataset) string {
	name := func(gid TID) string {
		t := d.Tuple(gid)
		if t == nil {
			return fmt.Sprintf("#%d", gid)
		}
		s := d.SchemaOf(t)
		return fmt.Sprintf("%s(%s)", s.Name, t.ID(s))
	}
	var b strings.Builder
	for i, st := range e.Steps {
		fmt.Fprintf(&b, "%2d. ", i+1)
		switch {
		case st.Rule != "" && st.IsMatch:
			fmt.Fprintf(&b, "rule %s matches %s = %s", st.Rule, name(st.A), name(st.B))
		case st.Rule != "":
			fmt.Fprintf(&b, "rule %s validates %s(%s, %s)", st.Rule, st.Model, name(st.A), name(st.B))
		case st.Origin == "id-dup":
			fmt.Fprintf(&b, "shared id value: %s = %s", name(st.A), name(st.B))
		case st.Origin == "external":
			fmt.Fprintf(&b, "routed fact: %s = %s", name(st.A), name(st.B))
		case st.IsMatch:
			fmt.Fprintf(&b, "matches %s = %s", name(st.A), name(st.B))
		default:
			fmt.Fprintf(&b, "validates %s(%s, %s)", st.Model, name(st.A), name(st.B))
		}
		for _, c := range st.Checks {
			fmt.Fprintf(&b, " [%s(%s, %s)]", c.Model, name(c.A), name(c.B))
		}
		if st.Worker >= 0 {
			fmt.Fprintf(&b, "  (worker %d, step %d)", st.Worker, st.Superstep)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, " ⇒  %s = %s\n", name(e.Target[0]), name(e.Target[1]))
	return b.String()
}
