package dmatch

import (
	"reflect"
	"testing"

	"dcer/internal/chase"
)

// The engine-option surface, as counts of exported fields. A knob added to
// either struct fails TestOptionsSurface until the constant — and this
// comment, with the two callers that need different values of it — is
// edited.
//
// chase.Options:
//
//   - ShareIndexes: true in dcer.Match, Explain and every command; false
//     in a DMatch worker under NoMQO.
//   - Metrics: set by cmd/dmatch and cmd/explain, nil in the library
//     entry points; the registry also carries the tracer, the wide-event
//     logger and the health monitor.
//   - MetricsLabels: empty for a lone engine, worker=i on a DMatch
//     worker's engine.
//   - Provenance: the log Explain and cmd/explain read proofs back from,
//     nil everywhere else.
//
// dmatch.Options:
//
//   - Workers: the command's -workers, GOMAXPROCS by default.
//   - NoMQO: the DMatch_noMQO ablation of internal/experiments; crosses
//     the wire as bit 0 of Assign's flag word.
//   - Sequential: internal/experiments' simulated makespan needs the
//     workers run one at a time; every other caller runs them at once.
//   - RebalanceSkew: 0 by default, -1 in the repository benchmark; any
//     positive value is an error, since DMatch never migrates blocks. The
//     field stays only because the frozen benchmark sets it.
//   - Metrics: as for chase.Options.
//   - Provenance, ProvenanceLimit: cmd/explain and the experiments'
//     audit capture proofs, with the command's -limit; off elsewhere.
const (
	chaseOptionsFields  = 4
	dmatchOptionsFields = 7
)

func TestOptionsSurface(t *testing.T) {
	for _, c := range []struct {
		name string
		typ  reflect.Type
		want int
	}{
		{"chase.Options", reflect.TypeOf(chase.Options{}), chaseOptionsFields},
		{"dmatch.Options", reflect.TypeOf(Options{}), dmatchOptionsFields},
	} {
		n := 0
		for i := 0; i < c.typ.NumField(); i++ {
			if c.typ.Field(i).IsExported() {
				n++
			}
		}
		t.Logf("%s: %d exported fields", c.name, n)
		if n != c.want {
			t.Errorf("%s has %d exported fields, want %d", c.name, n, c.want)
		}
	}
}
