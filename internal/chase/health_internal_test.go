package chase

// Internal health drills: these tests reach into the engine to plant
// corruption (a union-find parent cycle, a malformed Γ fact) or force a
// genuine drain stall, and assert the observatory catches each one.

import (
	"testing"
	"time"

	"dcer/internal/datagen"
	"dcer/internal/health"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
)

// paperEngine builds a paper-example engine attached to reg, and so to the
// monitor built on it.
func paperEngine(t *testing.T, reg *telemetry.Registry) *Engine {
	t.Helper()
	d, _ := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(d, rules, mlpred.DefaultRegistry(), Options{ShareIndexes: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestAuditorsPassOnHealthyRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	mon := health.NewMonitor(health.Options{Registry: reg, DiagnosisDir: t.TempDir(), SampleSize: 1 << 20, Seed: 1})
	defer mon.Stop()
	eng := paperEngine(t, reg)
	if eng.health == nil {
		t.Fatal("the engine did not pick up the monitor attached to its registry")
	}
	eng.Deduce()
	for _, name := range []string{"unionfind_roots", "gamma_provenance", "depstore_bytes", "plan_order"} {
		c := mon.Check(name)
		if c.Status() != health.StatusPass || c.Violations() != 0 {
			t.Errorf("check %s after a healthy Deduce: status %v, %d violation(s): %s",
				name, c.Status(), c.Violations(), c.Detail())
		}
	}
	if d := health.Diagnose(mon.Report()); !d.Healthy() {
		t.Errorf("healthy run diagnosed unhealthy:\n%s", d)
	}
}

// TestAuditorDetectsUnionFindCorruption plants a parent cycle in E_id
// after a clean run and asserts the auditor flips unionfind_roots to fail
// — the forced-corruption drill of the acceptance criteria.
func TestAuditorDetectsUnionFindCorruption(t *testing.T) {
	reg := telemetry.NewRegistry()
	mon := health.NewMonitor(health.Options{Registry: reg, DiagnosisDir: t.TempDir(), SampleSize: 1 << 20, Seed: 1})
	defer mon.Stop()
	eng := paperEngine(t, reg)
	eng.Deduce()

	eng.uf.SetParent(0, 1)
	eng.uf.SetParent(1, 0)
	eng.auditHealth()

	c := mon.Check("unionfind_roots")
	if c.Status() != health.StatusFail || c.Violations() == 0 {
		t.Fatalf("planted parent cycle not detected: status %v, %d violation(s)", c.Status(), c.Violations())
	}
	if d := health.Diagnose(mon.Report()); d.Healthy() {
		t.Fatal("diagnosis of a corrupted union-find reports healthy (cmd/doctor would exit 0)")
	}
}

// TestAuditorDetectsMalformedGamma appends a non-canonical match fact to
// Γ and asserts the gamma auditor rejects it.
func TestAuditorDetectsMalformedGamma(t *testing.T) {
	reg := telemetry.NewRegistry()
	mon := health.NewMonitor(health.Options{Registry: reg, DiagnosisDir: t.TempDir(), SampleSize: 1 << 20, Seed: 1})
	defer mon.Stop()
	eng := paperEngine(t, reg)
	eng.Deduce()

	// A > B breaks the canonical symmetric pair form MatchFact maintains.
	eng.gamma.Matches = append(eng.gamma.Matches, Fact{Kind: FactMatch, A: 5, B: 3})
	eng.auditHealth()

	c := mon.Check("gamma_provenance")
	if c.Status() != health.StatusFail || c.Violations() == 0 {
		t.Fatalf("malformed Γ fact not detected: status %v, %d violation(s)", c.Status(), c.Violations())
	}
}

// TestPlanOrderAuditSparesEvidenceNewerThanTheSort builds the state a
// replayed fragment leaves behind: a word program whose counters show a
// strong inversion (first step never fails, last fails 74 %) made of
// evaluations that arrived after the plan's last re-sort and have not yet
// added up to the next one. That is reordering's to fix when it falls due,
// so the auditor must pass; the same counters with all but a sliver of
// them older than the last re-sort are an inversion the re-sort left, and
// must warn.
func TestPlanOrderAuditSparesEvidenceNewerThanTheSort(t *testing.T) {
	str := relation.TypeString
	a := func(n string) relation.Attribute { return relation.Attribute{Name: n, Type: str} }
	db := relation.MustDatabase(relation.MustSchema("P", "pk", a("pk"), a("x"), a("y")))
	d := relation.NewDataset(db)
	d.MustAppend("P", relation.S("p0"), relation.S("u"), relation.S("u"))
	rules, err := rule.ParseResolved(
		"r: P(a) ^ P(b) ^ a.x = \"u\" ^ a.x = a.y ^ a.y = b.y -> a.id = b.id\n", db)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	mon := health.NewMonitor(health.Options{Registry: reg, DiagnosisDir: t.TempDir(), SampleSize: 1 << 20, Seed: 1})
	defer mon.Stop()
	eng, err := New(d, rules, mlpred.DefaultRegistry(), Options{ShareIndexes: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	plan := eng.rules[0].plan
	words := *plan.vars[0].words.Load()
	if len(words) < 2 {
		t.Fatalf("variable a compiled to %d word steps, want at least 2", len(words))
	}
	first, last := words[0], words[len(words)-1]
	first.evals.Store(1000)
	last.evals.Store(1000)
	last.fails.Store(740)

	plan.sinceSort.Store(2000) // all of it newer than the last re-sort, the next one not due
	eng.auditPlans()
	if c := mon.Check("plan_order"); c.Status() != health.StatusPass {
		t.Errorf("program still awaiting its re-sort: plan_order is %v (%s), want pass", c.Status(), c.Detail())
	}

	plan.sinceSort.Store(1000 / planOrderDriftDiv) // the last re-sort saw 7/8 of each and left the order
	eng.auditPlans()
	if c := mon.Check("plan_order"); c.Status() != health.StatusWarn {
		t.Errorf("inversion left by a re-sort: plan_order is %v, want warn", c.Status())
	}
}

// TestAuditorDetectsPermutedPlan is the drill on a live engine: TPCH runs
// to its fixpoint with plan_order passing (so the audit there judged what
// the engine's own re-sorts left), then every word program is reversed
// behind reordering's back — what a re-sort that does not sort would
// leave — and the next audit must warn. It also pins that a live fixpoint
// is a state the auditor judges at all, not only a hand-stamped one. One
// rule more than TPCH's own binds a variable through its similarity join:
// its ML step is never evaluated, reports what it was satisfied for, and
// the healthy audit must not read that as a fault.
func TestAuditorDetectsPermutedPlan(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.5, Dup: 0.3, Seed: 1})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := rule.ParseResolved("tsim: nation(n) ^ nation(m) ^ lev075(n.nname, m.nname) -> n.id = m.id\n", g.D.DB)
	if err != nil {
		t.Fatal(err)
	}
	rules = append(rules, sim...)
	reg := telemetry.NewRegistry()
	mon := health.NewMonitor(health.Options{Registry: reg, DiagnosisDir: t.TempDir(), SampleSize: 64, Seed: 1})
	defer mon.Stop()
	eng, err := New(g.D, rules, mlpred.DefaultRegistry(), Options{ShareIndexes: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if c := mon.Check("plan_order"); c.Status() != health.StatusPass {
		t.Fatalf("healthy run: plan_order is %v (%s), want pass", c.Status(), c.Detail())
	}
	rep := eng.PlanReport()
	m := rep.Rules[len(rep.Rules)-1].Vars[1]
	if len(m.Access) != 1 || m.Access[0].Path != "sim" || m.Access[0].Probes == 0 || m.Access[0].Scored == 0 ||
		len(m.Preds) == 0 || m.Preds[len(m.Preds)-1].Satisfied == 0 || m.Preds[len(m.Preds)-1].Evals != 0 {
		t.Errorf("rule tsim, variable m: want every binding through the similarity join and the ML step satisfied, never evaluated; report %+v", m)
	}
	for _, br := range eng.rules {
		for v := range br.plan.vars {
			words := append([]*wordPred(nil), *br.plan.vars[v].words.Load()...)
			for i, j := 0, len(words)-1; i < j; i, j = i+1, j-1 {
				words[i], words[j] = words[j], words[i]
			}
			br.plan.vars[v].words.Store(&words)
		}
	}
	eng.auditPlans()
	if c := mon.Check("plan_order"); c.Status() != health.StatusWarn {
		t.Errorf("every word program reversed: plan_order is %v, want warn", c.Status())
	}
}

// TestDrainStallCapturesBundle forces a genuine deduction stall — the
// paper-example chase with jaccard05 slowed to 40ms per call (4x the
// clamped-minimum watchdog deadline) — and asserts the whole stall
// pipeline: the stall is counted, a complete flight-recorder bundle is
// written and loads back, and the diagnosis fails (so cmd/doctor exits
// nonzero on it).
func TestDrainStallCapturesBundle(t *testing.T) {
	d, _ := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	reg := mlpred.DefaultRegistry()
	reg.Register(&mlpred.SimClassifier{
		ClassifierName: "jaccard05",
		Metric: func(a, b string) float64 {
			time.Sleep(40 * time.Millisecond)
			return mlpred.Jaccard(a, b)
		},
		Threshold: 0.5,
	})

	dir := t.TempDir()
	tel := telemetry.NewRegistry()
	mon := health.NewMonitor(health.Options{
		Registry:      tel,
		DiagnosisDir:  dir,
		StallDeadline: health.MinStallDeadline,
	})
	mon.Start()
	defer mon.Stop()

	eng, err := New(d, rules, reg, Options{ShareIndexes: true, Metrics: tel})
	if err != nil {
		t.Fatal(err)
	}
	eng.Deduce()
	mon.Stop()

	rep := mon.Report()
	if rep.Stalls == 0 {
		t.Fatal("slowed chase ran past the deadline but no stall was recorded")
	}
	if rep.LastBundle == "" {
		t.Fatal("stall recorded but no flight-recorder bundle captured")
	}
	b, err := health.LoadBundle(rep.LastBundle)
	if err != nil {
		t.Fatalf("LoadBundle(%s): %v", rep.LastBundle, err)
	}
	if len(b.Missing) != 0 {
		t.Fatalf("stall bundle incomplete, missing %v", b.Missing)
	}
	if b.Manifest.Reason != "stall:chase_drain" {
		t.Errorf("bundle reason = %q, want stall:chase_drain", b.Manifest.Reason)
	}
	if diag := health.Diagnose(rep); diag.Healthy() {
		t.Fatal("diagnosis of a stalled run reports healthy (cmd/doctor would exit 0)")
	}
}

// TestHealthDisabledIsInert: with no monitor attached to its registry the
// engine must run exactly as before — no health state, no checks,
// identical classes.
func TestHealthDisabledIsInert(t *testing.T) {
	d, _ := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(d, rules, mlpred.DefaultRegistry(), Options{ShareIndexes: true, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if eng.health != nil {
		t.Fatal("a registry without a monitor still initialized engine health state")
	}
	eng.Deduce()
}
