package dmatch

import (
	"bytes"
	"reflect"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/wire"
)

// The engine-option surface, as counts of exported fields. A knob added to
// any of the three structs fails TestOptionsSurface until the constant —
// and this comment, with the two callers that need different values of it
// (simplicity-review, Options) — is edited:
//
//   - chase.Options: ShareIndexes, IDSpace, SequentialDeduce, and three
//     observability hooks: Metrics, the one
//     handle whose registry also carries the tracer, the wide-event logger
//     and the health monitor; MetricsLabels, which a lone engine leaves
//     empty and a DMatch worker sets to worker=i; and Provenance, the log
//     the caller reads proofs back from.
//   - dmatch.Options: Workers, NoMQO, ReplicationCap, MaxSupersteps,
//     Sequential, RebalanceSkew, Metrics and the two provenance settings.
//   - wire.EngineOpts: what of the above changes the engine a worker
//     builds — NoMQO, SequentialDeduce.
const (
	chaseOptionsFields   = 6
	dmatchOptionsFields  = 9
	wireEngineOptsFields = 2
)

func TestOptionsSurface(t *testing.T) {
	for _, c := range []struct {
		name string
		typ  reflect.Type
		want int
	}{
		{"chase.Options", reflect.TypeOf(chase.Options{}), chaseOptionsFields},
		{"dmatch.Options", reflect.TypeOf(Options{}), dmatchOptionsFields},
		{"wire.EngineOpts", reflect.TypeOf(wire.EngineOpts{}), wireEngineOptsFields},
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

// TestEngineOptsRoundTrip sets every field of wire.EngineOpts, one at a
// time, to a non-zero value and follows it through both hand-written
// copies of the engine options: Encoder.Assign → Decoder, and
// wireEngineOpts → chaseOptsFromWire. A field added to one copy and
// forgotten in another fails here instead of silently running workers
// with a different engine than the master asked for.
func TestEngineOptsRoundTrip(t *testing.T) {
	// fromOptions names, per wire field, the dmatch option it is projected
	// from.
	fromOptions := map[string]Options{
		"NoMQO":            {NoMQO: true},
		"SequentialDeduce": {Sequential: true},
	}
	baseline := chaseOptsFromWire(wire.EngineOpts{}, 0, chase.Options{})
	typ := reflect.TypeOf(wire.EngineOpts{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var want wire.EngineOpts
		switch f := reflect.ValueOf(&want).Elem().Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(-7)
		default:
			t.Fatalf("wire.EngineOpts.%s: kind %s has no non-zero sample here", name, f.Kind())
		}

		var buf bytes.Buffer
		if err := wire.NewEncoder(&buf, nil).Assign(wire.Assign{Workers: 1, Opts: want}); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		m, err := wire.NewDecoder(&buf, nil).Next()
		if err != nil || m.Type != wire.MsgAssign {
			t.Fatalf("%s: decode: type %d, %v", name, m.Type, err)
		}
		if m.Assign.Opts != want {
			t.Errorf("%s lost on the wire: sent %+v, got %+v", name, want, m.Assign.Opts)
		}

		opts, ok := fromOptions[name]
		if !ok {
			t.Errorf("wire.EngineOpts.%s has no dmatch.Options source in this test (and in wireEngineOpts?)", name)
			continue
		}
		if got := wireEngineOpts(opts); got != want {
			t.Errorf("wireEngineOpts(%+v) = %+v, want %+v", opts, got, want)
		}
		if reflect.DeepEqual(chaseOptsFromWire(want, 0, chase.Options{}), baseline) {
			t.Errorf("%s does not reach the worker's chase.Options (chaseOptsFromWire drops it)", name)
		}
	}
}
