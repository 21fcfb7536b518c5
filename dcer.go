// Package dcer is a Go implementation of deep and collective entity
// resolution ("Deep and Collective Entity Resolution in Parallel",
// ICDE 2022): a fixpoint (chase) engine over MRLs — matching rules that
// may embed ML classifiers as predicates and correlate any number of
// relations — together with the HyPart hypercube partitioner and the
// parallelly scalable BSP engine DMatch.
//
// # Quick start
//
//	db := dcer.MustDatabase(
//	    dcer.MustSchema("Customers", "cno",
//	        dcer.Attr("cno", dcer.TypeString),
//	        dcer.Attr("name", dcer.TypeString),
//	        dcer.Attr("phone", dcer.TypeString)))
//	d := dcer.NewDataset(db)
//	d.MustAppend("Customers", dcer.S("c1"), dcer.S("Ford Smith"), dcer.S("555"))
//	d.MustAppend("Customers", dcer.S("c2"), dcer.S("F. Smith"), dcer.S("555"))
//
//	rules, _ := dcer.ParseRules(`
//	    r1: Customers(a) ^ Customers(b) ^ a.phone = b.phone ^
//	        nameabbrev(a.name, b.name) -> a.id = b.id`, db)
//	result, _ := dcer.Match(d, rules, dcer.DefaultClassifiers())
//	for _, class := range result.Classes() { ... }
//
// Use MatchParallel to run the same fixpoint with HyPart partitioning and
// n BSP workers. See examples/ for complete programs, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the reproduced evaluation.
package dcer

import (
	"fmt"
	"sort"
	"strings"

	"dcer/internal/chase"
	"dcer/internal/discovery"
	"dcer/internal/dmatch"
	"dcer/internal/eval"
	"dcer/internal/mlpred"
	"dcer/internal/provenance"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/soft"
	"dcer/internal/telemetry"
)

// Core relational types.
type (
	// Schema is a relation schema with a designated id attribute.
	Schema = relation.Schema
	// Database is a database schema R = (R_1, ..., R_m).
	Database = relation.Database
	// Dataset is an instance D of a database schema.
	Dataset = relation.Dataset
	// Tuple is one row; its GID is the dataset-wide tuple id.
	Tuple = relation.Tuple
	// TID is a global tuple id.
	TID = relation.TID
	// Value is a typed attribute value.
	Value = relation.Value
	// Attribute is a named, typed column.
	Attribute = relation.Attribute
	// Type is an attribute domain.
	Type = relation.Type
)

// Attribute domains.
const (
	TypeString = relation.TypeString
	TypeInt    = relation.TypeInt
	TypeFloat  = relation.TypeFloat
)

// Value constructors.
var (
	// S makes a string value.
	S = relation.S
	// I makes an integer value.
	I = relation.I
	// F makes a float value.
	F = relation.F
)

// Attr builds an attribute.
func Attr(name string, t Type) Attribute { return Attribute{Name: name, Type: t} }

// Schema and dataset constructors.
var (
	// NewSchema builds a relation schema; idAttr names the designated id.
	NewSchema = relation.NewSchema
	// MustSchema is NewSchema that panics on error.
	MustSchema = relation.MustSchema
	// NewDatabase assembles a database schema.
	NewDatabase = relation.NewDatabase
	// MustDatabase is NewDatabase that panics on error.
	MustDatabase = relation.MustDatabase
	// NewDataset creates an empty dataset over a database schema.
	NewDataset = relation.NewDataset
	// LoadDir loads every *.csv in a directory as one relation each.
	LoadDir = relation.LoadDir
	// SaveDir writes each relation of a dataset as CSV.
	SaveDir = relation.SaveDir
)

// Rule types.
type (
	// Rule is an MRL φ = X → l.
	Rule = rule.Rule
)

// ParseRules parses MRLs in the rule DSL and resolves them against db.
// See the rule package documentation for the grammar.
func ParseRules(text string, db *Database) ([]*Rule, error) {
	return rule.ParseResolved(text, db)
}

// IsAcyclic tests hypergraph acyclicity of a rule's precondition
// (the tractable case of Theorem 3).
var IsAcyclic = rule.IsAcyclic

// Classifier machinery (embedded ML predicates).
type (
	// Classifier is an embedded ML predicate M(t[Ā], s[B̄]).
	Classifier = mlpred.Classifier
	// ClassifierRegistry resolves classifier names used in rules.
	ClassifierRegistry = mlpred.Registry
	// SimClassifier thresholds a string-similarity metric.
	SimClassifier = mlpred.SimClassifier
	// LogisticModel is a trainable logistic-regression pair classifier.
	LogisticModel = mlpred.LogisticModel
)

// DefaultClassifiers returns the stock classifier registry (jaccard05,
// jaro085, lev075/080, embed080/090, cosine07, nameabbrev, surnames06).
func DefaultClassifiers() *ClassifierRegistry { return mlpred.DefaultRegistry() }

// NewClassifierRegistry returns an empty registry.
func NewClassifierRegistry() *ClassifierRegistry { return mlpred.NewRegistry() }

// Engine types.
type (
	// Engine is the sequential Match engine (Deduce + IncDeduce).
	Engine = chase.Engine
	// EngineOptions configures the sequential engine.
	EngineOptions = chase.Options
	// Fact is one element of Γ: a match or a validated ML prediction.
	Fact = chase.Fact
	// Gamma is the deduced set Γ.
	Gamma = chase.Gamma
	// ParallelOptions configures the parallel DMatch run.
	ParallelOptions = dmatch.Options
	// ParallelResult is the outcome of a DMatch run.
	ParallelResult = dmatch.Result
)

// NewEngine prepares a sequential chase engine.
func NewEngine(d *Dataset, rules []*Rule, reg *ClassifierRegistry, opts EngineOptions) (*Engine, error) {
	return chase.New(d, rules, reg, opts)
}

// Match runs the sequential deep-and-collective ER fixpoint (algorithm
// Match of the paper) and returns the engine holding Γ.
func Match(d *Dataset, rules []*Rule, reg *ClassifierRegistry) (*Engine, error) {
	eng, err := chase.New(d, rules, reg, chase.Options{ShareIndexes: true})
	if err != nil {
		return nil, err
	}
	eng.Run()
	return eng, nil
}

// MatchParallel partitions d with HyPart and runs the parallel BSP engine
// DMatch (Section V-B of the paper) with the workers as goroutines of
// this process.
func MatchParallel(d *Dataset, rules []*Rule, reg *ClassifierRegistry, opts ParallelOptions) (*ParallelResult, error) {
	return dmatch.Run(d, rules, reg, opts)
}

// Distributed execution: the same DMatch — one master loop, one worker
// loop — with the workers as separate OS processes, the messages
// MatchParallel hands its goroutines crossing TCP in the binary encoding
// of internal/wire. Γ is identical to MatchParallel with the same
// options; see DESIGN.md §16.
type (
	// DistributedOptions configures the process side of MatchDistributed:
	// the listen address, the worker spawn hook, and failure-detection
	// timeouts.
	DistributedOptions = dmatch.DistOptions
	// DistributedWorkerOptions configures one MatchWorker process.
	DistributedWorkerOptions = dmatch.WorkerOptions
)

// ErrWorkerCrash is returned by MatchWorker when the fault-injection
// hook (DistributedWorkerOptions.CrashAfter) fires.
var ErrWorkerCrash = dmatch.ErrInjectedCrash

// MatchDistributed runs DMatch with n worker processes over TCP: the
// master spawns workers via dopts.Spawn, partitions, routes facts through
// the wire protocol, and recovers from worker failures by reassigning the
// dead worker's blocks to the survivors.
func MatchDistributed(d *Dataset, rules []*Rule, reg *ClassifierRegistry, opts ParallelOptions, dopts DistributedOptions) (*ParallelResult, error) {
	return dmatch.RunDistributed(d, rules, reg, opts, dopts)
}

// MatchWorker runs the worker half of a distributed DMatch: dial the
// master, prove the locally loaded inputs match via the handshake
// fingerprint, then serve Deduce/IncDeduce supersteps until the master
// says done.
func MatchWorker(addr string, d *Dataset, rules []*Rule, reg *ClassifierRegistry, wopts DistributedWorkerOptions) error {
	return dmatch.RunWorker(addr, d, rules, reg, wopts)
}

// Observability (the telemetry layer): a dependency-free metrics
// registry (counters, gauges, log-scale histograms), a bounded span
// tracer, and an opt-in HTTP exposition endpoint. The registry is the one
// observability handle: attach it via EngineOptions.Metrics or
// ParallelOptions.Metrics and the engines also take from it the tracer,
// the wide-event logger (TelemetryRegistry.SetLogger) and the health
// monitor built on it. A nil registry makes every instrument a no-op.
type (
	// TelemetryRegistry names, stores, and exposes metric series, and
	// carries the tracer, logger and health monitor of the engines
	// attached to it.
	TelemetryRegistry = telemetry.Registry
	// TelemetryServer is the live /metrics + /debug/dcer + pprof endpoint.
	TelemetryServer = telemetry.Server
	// TelemetryLabel is one key=value dimension of a series.
	TelemetryLabel = telemetry.Label
	// Logger is the leveled logger of the command-line tools; set on a
	// registry at debug level it receives the engines' wide events.
	Logger = telemetry.Logger
	// SuperstepTimeline is the BSP execution profile of a DMatch run
	// (ParallelResult.Timeline): per-worker busy/idle time, routing
	// time, message counts, and skew per superstep.
	SuperstepTimeline = dmatch.Timeline
)

var (
	// Telemetry is the process-wide default registry (what -telemetry
	// serves in the bundled commands).
	Telemetry = telemetry.Default
	// NewTelemetry creates a private registry.
	NewTelemetry = telemetry.NewRegistry
	// ServeTelemetry starts the exposition endpoint for a registry.
	ServeTelemetry = telemetry.Serve
)

// Provenance (the justification log): a bounded record of why each fact
// entered Γ, captured inside the production engines when
// EngineOptions.Provenance / ParallelOptions.Provenance is set. Proofs
// are extracted with Engine.Proof / ParallelResult.Proof or rendered via
// Explain / ExplainParallel / ExplainFromLog.
type (
	// ProvenanceLog is the bounded justification log of one engine (or,
	// via ParallelResult.Provenance, the merged cross-worker log).
	ProvenanceLog = provenance.Log
	// ProvenanceEntry is one recorded derivation: fact, rule, valuation,
	// prerequisite facts, ML outcomes, worker, and superstep.
	ProvenanceEntry = provenance.Entry
	// MLCheck is one ML predicate outcome a derivation relied on.
	MLCheck = provenance.MLCheck
)

// NewProvenanceLog creates a justification log bounded to limit entries
// (0 means the default bound, negative means unbounded), to pass as
// EngineOptions.Provenance.
var NewProvenanceLog = provenance.NewLog

// CanonicalClasses renders equivalence classes in a canonical textual form
// (ids sorted within each class, classes sorted by first id), so two runs
// can be compared byte for byte regardless of deduction order.
func CanonicalClasses(classes [][]TID) string {
	canon := make([][]TID, len(classes))
	for i, c := range classes {
		cc := append([]TID(nil), c...)
		sort.Slice(cc, func(a, b int) bool { return cc[a] < cc[b] })
		canon[i] = cc
	}
	sort.Slice(canon, func(a, b int) bool {
		if len(canon[a]) == 0 || len(canon[b]) == 0 {
			return len(canon[a]) < len(canon[b])
		}
		return canon[a][0] < canon[b][0]
	})
	var b strings.Builder
	for _, c := range canon {
		for i, id := range c {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", id)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Rule discovery (the paper's experimental setup, Section VI): mine MRLs
// from labeled pairs by adapting denial-constraint discovery.
type (
	// MinedRule is one discovered rule with its support and confidence.
	MinedRule = discovery.Mined
	// MineOptions tunes the rule miner.
	MineOptions = discovery.Options
	// MinerPair is a labeled example for the miner.
	MinerPair = discovery.LabeledPair
)

// MineRules discovers single-relation MRLs from labeled pairs.
func MineRules(d *Dataset, pairs []MinerPair, reg *ClassifierRegistry, opts MineOptions) ([]MinedRule, error) {
	return discovery.Mine(d, pairs, reg, opts)
}

// Soft-rule extension (the paper's future-work item): MRLs with
// confidences, chased under max-product semantics to match probabilities.
type (
	// SoftRule is an MRL with a confidence in (0, 1].
	SoftRule = soft.Rule
	// SoftResult holds the soft fixpoint scores.
	SoftResult = soft.Result
	// SoftScore is one scored match pair.
	SoftScore = soft.Score
)

// MatchSoft runs the probabilistic (soft-rule) chase; see the soft package
// for the semantics. epsilon 0 means the default convergence bound.
func MatchSoft(d *Dataset, rules []SoftRule, reg *ClassifierRegistry, epsilon float64) (*SoftResult, error) {
	return soft.Chase(d, rules, reg, epsilon)
}

// Evaluation helpers.
type (
	// Metrics holds precision / recall / F-measure.
	Metrics = eval.Metrics
	// Truth is a set of ground-truth duplicate pairs.
	Truth = eval.Truth
)

// Evaluation constructors.
var (
	// NewTruth builds a truth set from (original, duplicate) pairs.
	NewTruth = eval.NewTruth
	// EvaluateClasses scores equivalence classes against a truth set.
	EvaluateClasses = eval.EvaluateClasses
	// EvaluatePairs scores explicit predicted pairs against a truth set.
	EvaluatePairs = eval.EvaluatePairs
)
