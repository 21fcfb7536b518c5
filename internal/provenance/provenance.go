// Package provenance is the justification log of the production chase:
// a bounded, append-only record of why each fact entered Γ. Where the
// telemetry layer answers "how fast", this package answers "why this
// match" — the proof graph of the paper's Theorem 2 captured inside the
// optimized engines (Deduce, the parallel drain, IncDeduce, and the BSP
// supersteps of DMatch) instead of re-derived by the brute-force
// reference chase.
//
// Each Entry records the derived fact, the rule and valuation that
// produced it, the prerequisite facts of Γ it consumed (Deps), the ML
// predicate outcomes it relied on (Checks), and — under DMatch — the
// worker and superstep that derived it. Proof extraction walks the
// recorded dependency edges backwards (see proof.go); Merge stitches the
// per-worker logs of a parallel run into one globally ordered log, so
// cross-worker proofs survive fact routing.
//
// Capture is opt-in (chase.Options.Provenance / dmatch.Options.Provenance)
// and follows the telemetry discipline: a nil log costs one branch per
// applied fact and nothing on the valuation hot path.
package provenance

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcer/internal/relation"
	"dcer/internal/telemetry"
)

// Kind discriminates the two fact kinds of Γ (mirrors chase.FactKind;
// this package stays a leaf so both chase and dmatch can import it).
type Kind uint8

const (
	// KindMatch is an id match (t.id, s.id).
	KindMatch Kind = iota
	// KindML is a validated ML prediction M(t[Ā], s[B̄]).
	KindML
)

// FactID identifies one fact of Γ. Match facts are canonical (A ≤ B);
// ML facts keep their pair order (predicates are not assumed symmetric).
type FactID struct {
	Kind  Kind         `json:"kind"`
	A     relation.TID `json:"a"`
	B     relation.TID `json:"b"`
	Model string       `json:"model,omitempty"`
}

// MatchID builds a canonical match FactID.
func MatchID(a, b relation.TID) FactID {
	if b < a {
		a, b = b, a
	}
	return FactID{Kind: KindMatch, A: a, B: b}
}

// MLID builds a validated-prediction FactID.
func MLID(model string, a, b relation.TID) FactID {
	return FactID{Kind: KindML, A: a, B: b, Model: model}
}

// canon returns the id in canonical form (match pairs ordered A ≤ B).
func (f FactID) canon() FactID {
	if f.Kind == KindMatch && f.B < f.A {
		f.A, f.B = f.B, f.A
	}
	return f
}

// String renders the fact for logs and debug payloads.
func (f FactID) String() string {
	if f.Kind == KindMatch {
		return fmt.Sprintf("(%d.id = %d.id)", f.A, f.B)
	}
	return fmt.Sprintf("%s(%d, %d)", f.Model, f.A, f.B)
}

// Origin says how a fact entered Γ.
type Origin uint8

const (
	// OriginRule is a direct rule application: every dynamic body literal
	// already held when the valuation was inspected.
	OriginRule Origin = iota
	// OriginDep was a fired dependency of the store H: a valuation
	// inspected earlier with some body literals unsatisfied, whose body a
	// later fact completed. The chase no longer produces it — it
	// re-inspects such a valuation when the fact arrives, an OriginRule
	// entry — and keeps it, and its number, so old logs still decode.
	OriginDep
	// OriginExternal is a fact applied from outside the engine — in
	// DMatch, a fact routed from another worker. Merge prefers the
	// originating worker's derivation over these arrival records.
	OriginExternal
	// OriginIDDup is a literal id-value duplicate discovered after setup
	// (the ΔD path of InsertTuples): two tuples sharing an id value denote
	// the same entity by definition and need no rule.
	OriginIDDup
)

// String names the origin.
func (o Origin) String() string {
	switch o {
	case OriginRule:
		return "rule"
	case OriginDep:
		return "dep"
	case OriginExternal:
		return "external"
	case OriginIDDup:
		return "id-dup"
	}
	return fmt.Sprintf("Origin(%d)", uint8(o))
}

// MarshalText renders origins as their names in JSON debug payloads.
func (o Origin) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses the textual origin names back, so the debug
// payloads round-trip through JSON consumers.
func (o *Origin) UnmarshalText(text []byte) error {
	for _, k := range []Origin{OriginRule, OriginDep, OriginExternal, OriginIDDup} {
		if string(text) == k.String() {
			*o = k
			return nil
		}
	}
	return fmt.Errorf("provenance: unknown origin %q", text)
}

// MLCheck is one ML predicate outcome a derivation relied on: the
// classifier's answer over the pair, as observed by the engine (through
// its answer cache) at derivation time.
type MLCheck struct {
	Model    string       `json:"model"`
	A        relation.TID `json:"a"`
	B        relation.TID `json:"b"`
	Positive bool         `json:"positive"`
}

// Entry is one recorded derivation: the fact, how it was derived, and
// the evidence.
type Entry struct {
	Fact   FactID `json:"fact"`
	Origin Origin `json:"origin"`
	// Rule and Valuation identify the rule application (empty for
	// external and id-dup origins): the rule name and one tuple id per
	// rule variable.
	Rule      string         `json:"rule,omitempty"`
	Valuation []relation.TID `json:"valuation,omitempty"`
	// Deps are the prerequisite facts of Γ the application consumed: the
	// id body predicates satisfied through earlier matches and the ML
	// body predicates satisfied through earlier validations.
	Deps []FactID `json:"deps,omitempty"`
	// Checks are the ML predicate outcomes consumed directly from the
	// classifiers (base evidence, checkable against D).
	Checks []MLCheck `json:"checks,omitempty"`
	// Worker and Step locate the derivation in a DMatch run (-1/0 for a
	// sequential engine).
	Worker int `json:"worker"`
	Step   int `json:"step"`
}

// DefaultLimit is the default capacity of a log, far above the Γ sizes of
// the bundled workloads but a hard bound on memory; when full, new
// entries are dropped and counted, and proof extraction reports
// incompleteness instead of returning a proof with holes.
const DefaultLimit = 1 << 20

// Log is the bounded justification log one engine records into. Record
// is called on the engine's fact-application path (single-goroutine per
// engine); Lookup, Entries, and the snapshot methods are safe for
// concurrent use from the debug endpoint.
type Log struct {
	mu      sync.Mutex
	entries []Entry
	index   map[FactID]int // canonical fact -> first entry index
	limit   int
	worker  int
	step    int

	dropped atomic.Int64
	// recordNs, when attached, times each Record call — the
	// dcer_provenance_* overhead family.
	recordNs *telemetry.Histogram
}

// NewLog creates a log bounded to limit entries (0 means DefaultLimit,
// negative means unbounded) recording worker -1, step 0.
func NewLog(limit int) *Log {
	if limit == 0 {
		limit = DefaultLimit
	}
	return &Log{index: make(map[FactID]int), limit: limit, worker: -1}
}

// SetWorker stamps subsequent entries with worker id w.
func (l *Log) SetWorker(w int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.worker = w
	l.mu.Unlock()
}

// SetStep stamps subsequent entries with BSP superstep s (the DMatch
// master calls it between supersteps).
func (l *Log) SetStep(s int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.step = s
	l.mu.Unlock()
}

// Record appends one derivation, stamping it with the log's worker and
// step. The first derivation of a fact wins; duplicates (the same fact
// re-derived by another rule or chunk) are ignored. It reports whether
// the entry was stored.
func (l *Log) Record(e Entry) bool {
	if l == nil {
		return false
	}
	var t0 time.Time
	timed := l.recordNs != nil
	if timed {
		t0 = time.Now()
	}
	key := e.Fact.canon()
	l.mu.Lock()
	if _, dup := l.index[key]; dup {
		l.mu.Unlock()
		return false
	}
	if l.limit > 0 && len(l.entries) >= l.limit {
		l.mu.Unlock()
		l.dropped.Add(1)
		return false
	}
	e.Worker, e.Step = l.worker, l.step
	l.index[key] = len(l.entries)
	l.entries = append(l.entries, e)
	l.mu.Unlock()
	if timed {
		l.recordNs.ObserveDuration(time.Since(t0))
	}
	return true
}

// Len returns the number of recorded entries.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Dropped returns how many entries were rejected for capacity.
func (l *Log) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}

// Complete reports whether every derivation offered to the log was
// retained — the precondition for a proof with no holes.
func (l *Log) Complete() bool { return l.Dropped() == 0 }

// Lookup returns the recorded derivation of a fact.
func (l *Log) Lookup(f FactID) (Entry, bool) {
	if l == nil {
		return Entry{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if i, ok := l.index[f.canon()]; ok {
		return l.entries[i], true
	}
	return Entry{}, false
}

// Entries returns a copy of the log in record order (a topological order
// of the dependency edges: every entry's prerequisites precede it).
func (l *Log) Entries() []Entry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Entry(nil), l.entries...)
}

// AttachMetrics registers the dcer_provenance_* family on reg: entry and
// drop gauges sharing the log as their source of truth, and the Record
// latency histogram (the capture overhead, observed per applied fact —
// the valuation hot path is never timed).
func (l *Log) AttachMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	if l == nil || reg == nil {
		return
	}
	reg.GaugeFunc("dcer_provenance_entries", func() float64 { return float64(l.Len()) }, labels...)
	reg.GaugeFunc("dcer_provenance_dropped", func() float64 { return float64(l.Dropped()) }, labels...)
	l.recordNs = reg.Histogram("dcer_provenance_record_ns", labels...)
}

// Summary is the debug-endpoint view of one log.
type Summary struct {
	Worker   int            `json:"worker"`
	Step     int            `json:"step"`
	Entries  int            `json:"entries"`
	Dropped  int64          `json:"dropped"`
	ByOrigin map[string]int `json:"by_origin"`
	// Recent holds the newest entries (bounded) so the live endpoint
	// shows what the engine is deriving right now.
	Recent []Entry `json:"recent,omitempty"`
}

// summaryRecent bounds how many entries a debug summary carries.
const summaryRecent = 16

// Summarize builds the debug view of the log.
func (l *Log) Summarize() Summary {
	s := Summary{Worker: -1, ByOrigin: map[string]int{}}
	if l == nil {
		return s
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s.Worker, s.Step = l.worker, l.step
	s.Entries = len(l.entries)
	s.Dropped = l.dropped.Load()
	for i := range l.entries {
		s.ByOrigin[l.entries[i].Origin.String()]++
	}
	lo := len(l.entries) - summaryRecent
	if lo < 0 {
		lo = 0
	}
	s.Recent = append([]Entry(nil), l.entries[lo:]...)
	return s
}

// Summarize builds the aggregate debug view of several logs (the DMatch
// per-worker logs), one Summary per log.
func Summarize(logs ...*Log) []Summary {
	out := make([]Summary, 0, len(logs))
	for _, l := range logs {
		out = append(out, l.Summarize())
	}
	return out
}
