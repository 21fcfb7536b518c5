package experiments

import (
	"fmt"
	"time"

	"dcer/internal/baselines"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/eval"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// Config scales the experiments. The defaults keep every driver at
// laptop/bench scale; raise Scale for longer runs.
type Config struct {
	// Scale multiplies the dataset sizes (1.0 ≈ 25k TPC-H tuples).
	Scale float64
	// Workers is the default worker count n (the paper's default is 16).
	Workers int
	Seed    int64
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.2
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	return c
}

// runDMatch executes DMatch and returns its accuracy and simulated
// cluster time (the BSP makespan; see dmatch.Timeline.Makespan —
// wall-clock is meaningless for n workers on a smaller host).
func runDMatch(g *datagen.Generated, workers int, noMQO bool) (eval.Metrics, time.Duration, *dmatch.Result) {
	rules, err := g.Rules()
	if err != nil {
		panic(err)
	}
	return runDMatchRules(g, rules, workers, noMQO)
}

// runDMatchRules is runDMatch with an explicit rule set (for ablations).
// Workers run sequentially so per-worker timings are undistorted.
func runDMatchRules(g *datagen.Generated, rules []*rule.Rule, workers int, noMQO bool) (eval.Metrics, time.Duration, *dmatch.Result) {
	res, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(),
		dmatch.Options{Workers: workers, NoMQO: noMQO, Sequential: true})
	if err != nil {
		panic(err)
	}
	m := eval.EvaluateClasses(res.Classes(), eval.NewTruth(g.Truth))
	return m, res.Timeline().Makespan(), res
}

// timeRepeats is how often the timed experiments repeat each measurement;
// the minimum is reported (standard noise suppression).
const timeRepeats = 3

// runTimed repeats a DMatch run and returns the minimum simulated time.
func runTimed(g *datagen.Generated, rules []*rule.Rule, workers int, noMQO bool) time.Duration {
	best := time.Duration(0)
	for i := 0; i < timeRepeats; i++ {
		_, d, _ := runDMatchRules(g, rules, workers, noMQO)
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

// runBaseline executes a pairwise baseline and returns accuracy and time.
func runBaseline(b baselines.Matcher, d *relation.Dataset, truth *eval.Truth) (eval.Metrics, time.Duration) {
	var pairs [][2]relation.TID
	dur := timeIt(func() { pairs = b.Match(d) })
	return eval.EvaluatePairs(pairs, truth), dur
}

// trainSplit splits labeled pairs 2:1 (the paper's training/testing split
// for ML models) deterministically.
func trainSplit(pairs []datagen.LabeledPair, seed int64) (train []baselines.TrainingPair) {
	n := datagen.NewNoiser(seed)
	perm := n.Perm(len(pairs))
	cut := len(pairs) * 2 / 3
	for _, i := range perm[:cut] {
		p := pairs[i]
		train = append(train, baselines.TrainingPair{A: p.A, B: p.B, Match: p.Match})
	}
	return train
}

// labeledSystems builds the full baseline battery for one labeled dataset,
// training the learned models on the 2/3 split.
func labeledSystems(g *datagen.Labeled, seed int64) []baselines.Matcher {
	train := trainSplit(g.LabeledPairs, seed)
	deepER := baselines.TrainPairModel(g.D, train, 8, 0.5, 1e-4, seed)
	deepMatcher := baselines.TrainPairModel(g.D, train, 30, 0.3, 1e-4, seed+1)
	deepMatcher.Threshold = 0.6
	erblox := baselines.TrainPairModel(g.D, train, 15, 0.5, 1e-4, seed+2)
	return []baselines.Matcher{
		baselines.DeepMatcherLike(deepMatcher),
		&baselines.JedAILike{},
		&baselines.ERBloxLike{Model: erblox},
		baselines.DeepERLike(deepER),
		baselines.DittoLike(0.8),
		&baselines.DisDedupLike{},
		&baselines.DedoopLike{},
		&baselines.SparkERLike{},
		&baselines.Windowing{},
	}
}

// TableV reproduces Table V: F-measure and time of the baselines and
// DMatch on the four labeled datasets (IMDB, ACM-DBLP, Movie, Songs
// stand-ins).
func TableV(cfg Config) *Table {
	cfg = cfg.withDefaults()
	size := int(4000 * cfg.Scale)
	if size < 200 {
		size = 200
	}
	sets := []struct {
		name string
		g    *datagen.Labeled
	}{
		{"IMDB", datagen.IMDBLike(size, 0.25, cfg.Seed+1)},
		{"ACM-DBLP", datagen.DBLPLike(size*3/4, 0.25, cfg.Seed+2)},
		{"Movie", datagen.MovieLike(size*3/4, 0.25, cfg.Seed+3)},
		{"Songs", datagen.SongsLike(size, 0.25, cfg.Seed+4)},
	}
	t := &Table{
		Title:  "Table V: accuracy (F) and time on labeled datasets",
		Header: []string{"system", "IMDB F", "IMDB T", "ACM-DBLP F", "ACM-DBLP T", "Movie F", "Movie T", "Songs F", "Songs T"},
	}
	type cell struct {
		f eval.Metrics
		t time.Duration
	}
	results := map[string][]cell{}
	var order []string
	record := func(name string, c cell) {
		if _, ok := results[name]; !ok {
			order = append(order, name)
		}
		results[name] = append(results[name], c)
	}
	for _, set := range sets {
		truth := eval.NewTruth(set.g.Truth)
		for _, b := range labeledSystems(set.g, cfg.Seed) {
			m, dur := runBaseline(b, set.g.D, truth)
			record(b.Name(), cell{m, dur})
		}
		m, dur, _ := runDMatch(&set.g.Generated, cfg.Workers, false)
		record("DMatch", cell{m, dur})
	}
	for _, name := range order {
		row := []any{name}
		for _, c := range results[name] {
			row = append(row, c.f.F1, c.t)
		}
		t.AddRow(row...)
	}
	return t
}

// TableVI reproduces Table VI: DMatch accuracy vs Dup on TPCH and TFACC.
func TableVI(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Table VI: accuracy of DMatch varying Dup",
		Header: []string{"Dup", "TPCH F", "TFACC F"},
	}
	for _, dup := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		tp := datagen.TPCH(datagen.TPCHOptions{Scale: cfg.Scale, Dup: dup, Seed: cfg.Seed})
		tf := datagen.TFACC(datagen.TFACCOptions{Scale: cfg.Scale, Dup: dup, Seed: cfg.Seed})
		mtp, _, _ := runDMatch(tp, cfg.Workers, false)
		mtf, _, _ := runDMatch(tf, cfg.Workers, false)
		t.AddRow(dup, mtp.F1, mtf.F1)
	}
	return t
}

// ablationRules derives the DMatch_C (collective-only, no id
// preconditions) and DMatch_D (deep-only, ≤ 4 tuple variables) rule sets.
func ablationRules(g *datagen.Generated) (full, collective, deep []*rule.Rule) {
	full, err := g.Rules()
	if err != nil {
		panic(err)
	}
	return full, rule.FilterCollectiveOnly(full), rule.FilterDeepOnly(full, 4)
}

// Fig6AB reproduces Figures 6(a)-(b): F-measure of DMatch vs its
// ablations and the distributed baselines on TPCH and TFACC at Dup = 0.5.
func Fig6AB(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Fig 6(a)-(b): accuracy on TPCH and TFACC (Dup=0.5)",
		Header: []string{"system", "TPCH F", "TFACC F"},
	}
	tp := datagen.TPCH(datagen.TPCHOptions{Scale: cfg.Scale, Dup: 0.5, Seed: cfg.Seed})
	tf := datagen.TFACC(datagen.TFACCOptions{Scale: cfg.Scale, Dup: 0.5, Seed: cfg.Seed})
	fullTP, collTP, deepTP := ablationRules(tp)
	fullTF, collTF, deepTF := ablationRules(tf)
	row := func(name string, ftp, ftf float64) { t.AddRow(name, ftp, ftf) }

	m1, _, _ := runDMatchRules(tp, fullTP, cfg.Workers, false)
	m2, _, _ := runDMatchRules(tf, fullTF, cfg.Workers, false)
	row("DMatch", m1.F1, m2.F1)
	m1, _, _ = runDMatchRules(tp, collTP, cfg.Workers, false)
	m2, _, _ = runDMatchRules(tf, collTF, cfg.Workers, false)
	row("DMatch_C", m1.F1, m2.F1)
	m1, _, _ = runDMatchRules(tp, deepTP, cfg.Workers, false)
	m2, _, _ = runDMatchRules(tf, deepTF, cfg.Workers, false)
	row("DMatch_D", m1.F1, m2.F1)
	for _, b := range []baselines.Matcher{&baselines.DedoopLike{}, &baselines.DisDedupLike{}, &baselines.SparkERLike{}} {
		mtp, _ := runBaseline(b, tp.D, eval.NewTruth(tp.Truth))
		mtf, _ := runBaseline(b, tf.D, eval.NewTruth(tf.Truth))
		row(b.Name(), mtp.F1, mtf.F1)
	}
	return t
}

// Fig6CD reproduces Figures 6(c)-(d): time vs Dup on TPCH and TFACC.
func Fig6CD(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Fig 6(c)-(d): time varying Dup (n=" + itoa(cfg.Workers) + ")",
		Header: []string{"Dup", "TPCH DMatch", "TPCH DisDedup", "TPCH SparkER", "TFACC DMatch", "TFACC DisDedup", "TFACC SparkER"},
	}
	for _, dup := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		tp := datagen.TPCH(datagen.TPCHOptions{Scale: cfg.Scale, Dup: dup, Seed: cfg.Seed})
		tf := datagen.TFACC(datagen.TFACCOptions{Scale: cfg.Scale, Dup: dup, Seed: cfg.Seed})
		tpRules, _ := tp.Rules()
		tfRules, _ := tf.Rules()
		dtp := runTimed(tp, tpRules, cfg.Workers, false)
		dtf := runTimed(tf, tfRules, cfg.Workers, false)
		dd := &baselines.DisDedupLike{Workers: cfg.Workers}
		sp := &baselines.SparkERLike{Workers: cfg.Workers}
		_, ddtp := runBaseline(dd, tp.D, eval.NewTruth(tp.Truth))
		_, sptp := runBaseline(sp, tp.D, eval.NewTruth(tp.Truth))
		_, ddtf := runBaseline(dd, tf.D, eval.NewTruth(tf.Truth))
		_, sptf := runBaseline(sp, tf.D, eval.NewTruth(tf.Truth))
		t.AddRow(dup, dtp, ddtp, sptp, dtf, ddtf, sptf)
	}
	return t
}

// Fig6EF reproduces Figures 6(e)-(f): time vs the number |φ| of predicates
// per rule (‖Σ‖ = 10), DMatch vs DMatch_noMQO.
func Fig6EF(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Fig 6(e)-(f): time varying |φ| (10 rules, n=" + itoa(cfg.Workers) + ")",
		Header: []string{"|φ|", "TPCH DMatch", "TPCH noMQO", "TFACC DMatch", "TFACC noMQO"},
	}
	tp := datagen.TPCH(datagen.TPCHOptions{Scale: cfg.Scale, Dup: 0.3, Seed: cfg.Seed})
	tf := datagen.TFACC(datagen.TFACCOptions{Scale: cfg.Scale, Dup: 0.3, Seed: cfg.Seed})
	for _, width := range []int{2, 4, 6, 8, 10} {
		tpRules := mustResolve(datagen.TPCHWidthRules(width, 10), tp.D.DB)
		tfWidth := width
		if tfWidth > 8 {
			tfWidth = 8
		}
		tfRules := mustResolve(datagen.TFACCWidthRules(tfWidth, 10), tf.D.DB)
		t1 := runTimed(tp, tpRules, cfg.Workers, false)
		t2 := runTimed(tp, tpRules, cfg.Workers, true)
		t3 := runTimed(tf, tfRules, cfg.Workers, false)
		t4 := runTimed(tf, tfRules, cfg.Workers, true)
		t.AddRow(width, t1, t2, t3, t4)
	}
	return t
}

// Fig6GH reproduces Figures 6(g)-(h): time vs the number ‖Σ‖ of rules,
// DMatch vs DMatch_noMQO.
func Fig6GH(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Fig 6(g)-(h): time varying ‖Σ‖ (n=" + itoa(cfg.Workers) + ")",
		Header: []string{"‖Σ‖ TPCH", "TPCH DMatch", "TPCH noMQO", "‖Σ‖ TFACC", "TFACC DMatch", "TFACC noMQO"},
	}
	tp := datagen.TPCH(datagen.TPCHOptions{Scale: cfg.Scale, Dup: 0.3, Seed: cfg.Seed})
	tf := datagen.TFACC(datagen.TFACCOptions{Scale: cfg.Scale, Dup: 0.3, Seed: cfg.Seed})
	tpCounts := []int{30, 45, 60, 75}
	tfCounts := []int{10, 17, 24, 30}
	for i := range tpCounts {
		tpRules := mustResolve(datagen.TPCHManyRules(tpCounts[i]), tp.D.DB)
		tfRules := mustResolve(datagen.TFACCManyRules(tfCounts[i]), tf.D.DB)
		t1 := runTimed(tp, tpRules, cfg.Workers, false)
		t2 := runTimed(tp, tpRules, cfg.Workers, true)
		t3 := runTimed(tf, tfRules, cfg.Workers, false)
		t4 := runTimed(tf, tfRules, cfg.Workers, true)
		t.AddRow(tpCounts[i], t1, t2, tfCounts[i], t3, t4)
	}
	return t
}

// Fig6IJ reproduces Figures 6(i)-(j): time (and speedup) vs the number n
// of workers — the parallel-scalability experiment.
func Fig6IJ(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Fig 6(i)-(j): time varying workers n",
		Header: []string{"n", "TPCH DMatch", "TPCH noMQO", "TFACC DMatch", "TFACC noMQO", "TPCH speedup vs n=2"},
	}
	tp := datagen.TPCH(datagen.TPCHOptions{Scale: cfg.Scale, Dup: 0.3, Seed: cfg.Seed})
	tf := datagen.TFACC(datagen.TFACCOptions{Scale: cfg.Scale, Dup: 0.3, Seed: cfg.Seed})
	tpRules := mustResolve(datagen.TPCHManyRules(30), tp.D.DB)
	tfRules := mustResolve(datagen.TFACCManyRules(10), tf.D.DB)
	var base time.Duration
	for _, n := range []int{2, 4, 8, 16, 32} {
		t1 := runTimed(tp, tpRules, n, false)
		t2 := runTimed(tp, tpRules, n, true)
		t3 := runTimed(tf, tfRules, n, false)
		t4 := runTimed(tf, tfRules, n, true)
		if n == 2 {
			base = t1
		}
		speedup := float64(base) / float64(t1)
		t.AddRow(n, t1, t2, t3, t4, speedup)
	}
	t.Title += " (simulated BSP makespan)"
	return t
}

// Fig6KL reproduces Figures 6(k)-(l): time vs scale factor.
func Fig6KL(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Fig 6(k)-(l): time varying scale factor (n=" + itoa(cfg.Workers) + ")",
		Header: []string{"sf", "TPCH DMatch", "TPCH noMQO", "TFACC DMatch", "TFACC noMQO"},
	}
	for _, sf := range []float64{0.05, 0.1, 0.25, 0.5, 1.0} {
		tp := datagen.TPCH(datagen.TPCHOptions{Scale: sf * cfg.Scale * 5, Dup: 0.3, Seed: cfg.Seed})
		tf := datagen.TFACC(datagen.TFACCOptions{Scale: sf * cfg.Scale * 5, Dup: 0.3, Seed: cfg.Seed})
		tpRules, _ := tp.Rules()
		tfRules, _ := tf.Rules()
		t1 := runTimed(tp, tpRules, cfg.Workers, false)
		t2 := runTimed(tp, tpRules, cfg.Workers, true)
		t3 := runTimed(tf, tfRules, cfg.Workers, false)
		t4 := runTimed(tf, tfRules, cfg.Workers, true)
		t.AddRow(sf, t1, t2, t3, t4)
	}
	return t
}

// Partitioning reproduces the Exp-2 partitioning measurement: HyPart time
// vs ER time as n grows.
func Partitioning(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Exp-2: partitioning time vs ER time on TPCH",
		Header: []string{"n", "partition", "ER", "partition/ER", "messages", "supersteps"},
	}
	tp := datagen.TPCH(datagen.TPCHOptions{Scale: cfg.Scale, Dup: 0.3, Seed: cfg.Seed})
	rules, err := tp.Rules()
	if err != nil {
		panic(err)
	}
	for _, n := range []int{4, 8, 16, 32} {
		var best *dmatch.Result
		var bestSim time.Duration
		for i := 0; i < timeRepeats; i++ {
			res, err := dmatch.Run(tp.D, rules, mlpred.DefaultRegistry(),
				dmatch.Options{Workers: n, Sequential: true})
			if err != nil {
				panic(err)
			}
			sim := res.Timeline().Makespan()
			if best == nil || sim+res.PartitionTime < bestSim+best.PartitionTime {
				best, bestSim = res, sim
			}
		}
		// Hypercube routing is per-tuple parallel; the simulated cluster
		// partition time is the single-threaded wall time divided by n.
		simPart := best.PartitionTime / time.Duration(n)
		ratio := float64(simPart) / float64(bestSim)
		t.AddRow(n, simPart, bestSim, ratio, best.MessagesRouted, best.Supersteps)
	}
	return t
}

func mustResolve(text string, db *relation.Database) []*rule.Rule {
	rules, err := rule.ParseResolved(text, db)
	if err != nil {
		panic(err)
	}
	return rules
}

func itoa(n int) string { return fmt.Sprint(n) }
