package main

import (
	"fmt"
	"math/rand"
	"time"

	"dcer"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// metricDef names one metric; Bound is set on end-to-end metrics only and
// is the share of the parent commit's median by which the metric may get
// worse before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is reported for every workload. BENCHMARK.json repeats this
// table for the driver; benchmark_test.go checks that the two agree.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"e2e_s", "s", "lower", 0.25},
	{"resolve_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"f1", "ratio", "higher", 0},
}

// perLayer is reported from the one traced repetition of a workload; a
// layer that does nothing on a workload reports zeros.
var perLayer = []metricDef{
	{Name: "relation.load_s", Unit: "s", Better: "lower"},
	{Name: "relation.tuples", Unit: "count", Better: "higher"},
	{Name: "relation.mem_mb", Unit: "MB", Better: "lower"},
	{Name: "relation.emit_s", Unit: "s", Better: "lower"},

	{Name: "rule.parse_s", Unit: "s", Better: "lower"},

	{Name: "chase.new_s", Unit: "s", Better: "lower"},
	{Name: "chase.deduce_s", Unit: "s", Better: "lower"},
	{Name: "chase.insert_s", Unit: "s", Better: "lower"},
	{Name: "chase.classes_s", Unit: "s", Better: "lower"},
	{Name: "chase.valuations", Unit: "count", Better: "lower"},
	{Name: "chase.extensions", Unit: "count", Better: "lower"},
	{Name: "chase.plan_preds", Unit: "count", Better: "lower"},
	{Name: "chase.rounds", Unit: "count", Better: "lower"},
	{Name: "chase.deps_recorded", Unit: "count", Better: "lower"},
	{Name: "chase.deps_fired", Unit: "count", Better: "lower"},
	{Name: "chase.deps_dropped", Unit: "count", Better: "lower"},
	{Name: "chase.index_builds", Unit: "count", Better: "lower"},
	{Name: "chase.matches_found", Unit: "count", Better: "higher"},
	{Name: "chase.useful_ratio", Unit: "ratio", Better: "higher"},

	{Name: "mlpred.invocations", Unit: "count", Better: "lower"},
	{Name: "mlpred.pair_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mlpred.feat_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mlpred.feat_entries", Unit: "count", Better: "lower"},
	{Name: "mlpred.score_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "mlpred.est_busy_s", Unit: "s", Better: "lower"},

	{Name: "hypart.partition_s", Unit: "s", Better: "lower"},
	{Name: "hypart.generated_tuples", Unit: "count", Better: "lower"},
	{Name: "hypart.placed_tuples", Unit: "count", Better: "lower"},
	{Name: "hypart.replication_factor", Unit: "ratio", Better: "lower"},
	{Name: "hypart.blocks", Unit: "count", Better: "lower"},
	{Name: "hypart.hash_computations", Unit: "count", Better: "lower"},
	{Name: "hypart.hash_share_ratio", Unit: "ratio", Better: "higher"},
	{Name: "hypart.fragment_skew", Unit: "ratio", Better: "lower"},

	{Name: "dmatch.er_s", Unit: "s", Better: "lower"},
	{Name: "dmatch.supersteps", Unit: "count", Better: "lower"},
	{Name: "dmatch.makespan_s", Unit: "s", Better: "lower"},
	{Name: "dmatch.route_s", Unit: "s", Better: "lower"},
	{Name: "dmatch.barrier_idle_s", Unit: "s", Better: "lower"},
	{Name: "dmatch.skew_max", Unit: "ratio", Better: "lower"},
	{Name: "dmatch.messages_routed", Unit: "count", Better: "lower"},
	{Name: "dmatch.messages_deduped", Unit: "count", Better: "higher"},
	{Name: "dmatch.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dmatch.facts_produced", Unit: "count", Better: "lower"},
	{Name: "dmatch.work_amplification", Unit: "ratio", Better: "lower"},
	{Name: "dmatch.worker_index_builds", Unit: "count", Better: "lower"},
	{Name: "dmatch.rebalances", Unit: "count", Better: "lower"},
	{Name: "dmatch.recoveries", Unit: "count", Better: "lower"},
	{Name: "dmatch.worker_load_s", Unit: "s", Better: "lower"},
	{Name: "dmatch.dist_overhead_s", Unit: "s", Better: "lower"},

	{Name: "wire.bytes", Unit: "count", Better: "lower"},
	{Name: "wire.frames", Unit: "count", Better: "lower"},
	{Name: "wire.encode_s", Unit: "s", Better: "lower"},
	{Name: "wire.decode_s", Unit: "s", Better: "lower"},
	{Name: "wire.bytes_per_fact", Unit: "ratio", Better: "lower"},
	{Name: "wire.dict_shrink", Unit: "ratio", Better: "higher"},

	{Name: "trace.residual_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanSeconds sums the durations of the spans called name.
func spanSeconds(spans []span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

// layerMetrics assembles every per-layer metric from the traced
// repetition: times from its spans, counts from the public result structs.
// refValuations is the single-engine chase's count on the same dataset,
// untracedE2E the median of the gated repetitions.
func layerMetrics(m mode, rep repResult, spans []span, refValuations int64, untracedE2E, scoreNs float64) map[string]float64 {
	st := rep.Stats
	v := map[string]float64{
		"relation.load_s": spanSeconds(spans, "relation.LoadDir") + spanSeconds(spans, "relation.LoadDir(delta)"),
		"relation.tuples": float64(rep.Tuples),
		"relation.mem_mb": float64(rep.DatasetMem) / 1e6,
		"relation.emit_s": spanSeconds(spans, "emit"),
		"rule.parse_s":    spanSeconds(spans, "dcer.ParseRules"),

		"chase.new_s":         spanSeconds(spans, "chase.New"),
		"chase.deduce_s":      spanSeconds(spans, "Engine.Run"),
		"chase.insert_s":      spanSeconds(spans, "Engine.InsertTuples"),
		"chase.classes_s":     spanSeconds(spans, "Engine.Classes"),
		"chase.valuations":    float64(st.Valuations),
		"chase.extensions":    float64(st.Extensions),
		"chase.plan_preds":    float64(st.PlanPreds),
		"chase.rounds":        float64(st.Rounds),
		"chase.deps_recorded": float64(st.DepsRecorded),
		"chase.deps_fired":    float64(st.DepsFired),
		"chase.deps_dropped":  float64(st.DepsDropped),
		"chase.index_builds":  float64(st.IndexBuilds),
		"chase.matches_found": float64(st.MatchesFound),
		"chase.useful_ratio":  ratio(float64(st.MatchesFound+st.MLValidated), float64(st.Valuations)),

		"mlpred.invocations":       float64(st.MLCacheMiss),
		"mlpred.pair_hit_ratio":    ratio(float64(st.MLCacheHits), float64(st.MLCacheHits+st.MLCacheMiss)),
		"mlpred.feat_hit_ratio":    ratio(float64(st.FeatHits), float64(st.FeatHits+st.FeatMisses)),
		"mlpred.feat_entries":      float64(st.FeatEntries),
		"mlpred.score_ns_per_pair": scoreNs,
		// Computed, not measured: invocations × the sampled cost of one.
		"mlpred.est_busy_s": float64(st.MLCacheMiss) * scoreNs / 1e9,
	}
	if res := rep.Res; res != nil {
		ps := res.PartitionStats
		v["hypart.partition_s"] = res.PartitionTime.Seconds()
		v["hypart.generated_tuples"] = float64(ps.GeneratedTuples)
		v["hypart.placed_tuples"] = float64(ps.PlacedTuples)
		v["hypart.replication_factor"] = ratio(float64(ps.PlacedTuples), float64(rep.Tuples))
		v["hypart.blocks"] = float64(ps.Blocks)
		v["hypart.hash_computations"] = float64(ps.HashComputations)
		v["hypart.hash_share_ratio"] = 1 - ratio(float64(ps.HashComputations), float64(ps.HashLookups))
		v["hypart.fragment_skew"] = ratio(float64(ps.MaxFragment), float64(ps.MinFragment))

		var makespan, route, idle, busy, wall int64
		var skew float64
		for _, ss := range res.Timeline().Steps {
			makespan += ss.MakespanNs
			route += ss.RouteNs
			wall += ss.WallNs
			skew = max(skew, ss.SkewRatio)
			for _, ws := range ss.Workers {
				idle += ws.IdleNs
				busy += ws.BusyNs
			}
		}
		// Inside DMatch the engines' time is the workers' busy time.
		v["chase.deduce_s"] = float64(busy) / 1e9
		v["dmatch.er_s"] = res.ERTime.Seconds()
		v["dmatch.supersteps"] = float64(res.Supersteps)
		v["dmatch.makespan_s"] = float64(makespan) / 1e9
		v["dmatch.route_s"] = float64(route) / 1e9
		v["dmatch.barrier_idle_s"] = float64(idle) / 1e9
		v["dmatch.skew_max"] = skew
		v["dmatch.messages_routed"] = float64(res.MessagesRouted)
		v["dmatch.messages_deduped"] = float64(res.MessagesDeduped)
		v["dmatch.dedup_ratio"] = ratio(float64(res.MessagesDeduped), float64(res.MessagesRouted+res.MessagesDeduped))
		v["dmatch.facts_produced"] = float64(res.FactsProduced)
		v["dmatch.work_amplification"] = ratio(float64(st.Valuations), float64(refValuations))
		v["dmatch.worker_index_builds"] = float64(st.IndexBuilds)
		v["dmatch.rebalances"] = float64(len(res.Rebalances))
		v["dmatch.recoveries"] = float64(len(res.Recoveries))
		if m == modeDist {
			v["dmatch.worker_load_s"] = rep.WorkerLoadS
			// Spawn, accept, handshake, assign and teardown: what is left
			// of the call after partitioning and the supersteps.
			v["dmatch.dist_overhead_s"] = spanSeconds(spans, "dmatch.Run") - res.PartitionTime.Seconds() - float64(wall)/1e9
			wr := res.Wire
			v["wire.bytes"] = float64(wr.BytesOut + wr.BytesIn)
			v["wire.frames"] = float64(wr.FramesOut + wr.FramesIn)
			v["wire.encode_s"] = float64(wr.EncodeNs) / 1e9
			v["wire.decode_s"] = float64(wr.DecodeNs) / 1e9
			v["wire.bytes_per_fact"] = ratio(float64(wr.BytesOut+wr.BytesIn), float64(res.MessagesRouted+res.FactsProduced))
			v["wire.dict_shrink"] = ratio(float64(wr.NaiveSymBytes), float64(wr.DictBytes))
		}
	}
	v["trace.residual_s"] = layerSelfSeconds(spans)["trace"]
	v["trace.overhead_pct"] = 100 * ratio(rep.E2E-untracedE2E, untracedE2E)
	return v
}

// scoreSample is how many tuple pairs each classifier is timed over.
const scoreSample = 10000

// scoreNsPerPair times every classifier the rule set names, from outside
// the engine, over a fixed sample of tuple pairs drawn from the relations
// the predicate ranges over, and returns the mean cost of one prediction.
// Feature bundles are built and warmed first, as the engine's feature
// store does, so the figure is the scoring kernel alone.
func scoreNsPerPair(dataDir, rulesPath string, seed int64) (float64, error) {
	d, err := relation.LoadDir(dataDir)
	if err != nil {
		return 0, err
	}
	rules, err := loadRules(rulesPath, d)
	if err != nil {
		return 0, err
	}
	reg := dcer.DefaultClassifiers()
	type site struct {
		model  string
		ra, rb int
		av, bv string
	}
	seen := make(map[site]bool)
	var total time.Duration
	pairs := 0
	for _, r := range rules {
		for i := range r.Body {
			p := &r.Body[i]
			if p.Kind != rule.PredML {
				continue
			}
			st := site{p.Model, r.Vars[p.V1].RelIdx, r.Vars[p.V2].RelIdx, fmt.Sprint(p.A1Vec), fmt.Sprint(p.A2Vec)}
			if seen[st] {
				continue
			}
			seen[st] = true
			cl, err := reg.Get(p.Model)
			if err != nil {
				return 0, err
			}
			el, n := timeClassifier(cl, d.Relations[st.ra], d.Relations[st.rb], p.A1Vec, p.A2Vec, seed)
			total += el
			pairs += n
		}
	}
	return ratio(float64(total.Nanoseconds()), float64(pairs)), nil
}

func timeClassifier(cl mlpred.Classifier, ra, rb *relation.Relation, av, bv []int, seed int64) (time.Duration, int) {
	if len(ra.Tuples) == 0 || len(rb.Tuples) == 0 {
		return 0, 0
	}
	rng := rand.New(rand.NewSource(seed))
	gather := func(t *relation.Tuple, attrs []int) []relation.Value {
		vals := make([]relation.Value, len(attrs))
		for i, a := range attrs {
			vals[i] = t.Val(a)
		}
		return vals
	}
	fc, _ := cl.(mlpred.FeatureClassifier)
	type pair struct {
		l, r   []relation.Value
		fl, fr *mlpred.Features
	}
	sample := make([]pair, scoreSample)
	for i := range sample {
		p := pair{
			l: gather(ra.Tuples[rng.Intn(len(ra.Tuples))], av),
			r: gather(rb.Tuples[rng.Intn(len(rb.Tuples))], bv),
		}
		if fc != nil {
			p.fl, p.fr = mlpred.ComputeFeatures(p.l, 0), mlpred.ComputeFeatures(p.r, 0)
		}
		sample[i] = p
	}
	predict := func(p pair) bool {
		if fc != nil {
			return fc.PredictFeatures(p.fl, p.fr)
		}
		return cl.Predict(p.l, p.r)
	}
	for _, p := range sample { // derive the lazily built tokens and embeddings
		predict(p)
	}
	t0 := time.Now()
	for _, p := range sample {
		predict(p)
	}
	return time.Since(t0), len(sample)
}
