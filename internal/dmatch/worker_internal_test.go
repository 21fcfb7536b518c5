package dmatch

import (
	"strings"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/hypart"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/telemetry"
	"dcer/internal/wire"
)

// TestWorkerRefusesForeignAssign: a worker handed an Assign whose rule
// count, dimension count or extents are not those of its own rules'
// cubes, or whose bitmap is narrower than a cube, returns an error and
// builds no engine — as a process, which derives its cubes from its first
// Assign, and as a slot of the master's process holding the partition's —
// while the partition's own Assign builds one.
func TestWorkerRefusesForeignAssign(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.04, Dup: 0.4, Seed: 7})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	part, err := hypart.Partition(g.D, rules, 2, hypart.Options{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	good := newMasterState(g.D, part, 2, false).assignFor(0, nil)
	edit := func(f func(a *wire.Assign)) wire.Assign {
		a := *good
		a.Extents = make([][]int, len(good.Extents))
		for r := range a.Extents {
			a.Extents[r] = append([]int(nil), good.Extents[r]...)
		}
		a.Owned = append([][]uint64(nil), good.Owned...)
		f(&a)
		return a
	}
	bad := map[string]wire.Assign{
		"one rule short":     edit(func(a *wire.Assign) { a.Extents, a.Owned = a.Extents[1:], a.Owned[1:] }),
		"a dimension short":  edit(func(a *wire.Assign) { a.Extents[0] = a.Extents[0][1:] }),
		"an extent of three": edit(func(a *wire.Assign) { a.Extents[0][0] = 3 }),
		"another extent":     edit(func(a *wire.Assign) { a.Extents[0][0] *= 2 }),
		"a narrow bitmap":    edit(func(a *wire.Assign) { a.Owned[0] = nil }),
	}
	for _, cubes := range [][]hypart.Cube{nil, part.Cubes} {
		mode := "process"
		if cubes != nil {
			mode = "in-process slot"
		}
		for name, a := range bad {
			w := &worker{d: g.D, rules: rules, reg: mlpred.DefaultRegistry(), ix: relation.NewIndexSet(g.D), cubes: cubes}
			if cubes == nil && name == "another extent" {
				// A process knows the extents once its first Assign came.
				if _, _, err := w.handle(wire.Msg{Type: wire.MsgAssign, Assign: *good}, telemetry.TraceContext{}); err != nil {
					t.Fatal(err)
				}
				w.eng = nil
			}
			_, _, err := w.handle(wire.Msg{Type: wire.MsgAssign, Assign: a}, telemetry.TraceContext{})
			if err == nil || w.eng != nil {
				t.Errorf("%s, %s: accepted", mode, name)
			} else if !strings.Contains(err.Error(), "worker 0") {
				t.Errorf("%s, %s: error %q does not name the worker", mode, name, err)
			}
		}
		w := &worker{d: g.D, rules: rules, reg: mlpred.DefaultRegistry(), ix: relation.NewIndexSet(g.D), cubes: cubes}
		if _, _, err := w.handle(wire.Msg{Type: wire.MsgAssign, Assign: *good}, telemetry.TraceContext{}); err != nil || w.eng == nil {
			t.Errorf("%s: the partition's Assign refused: %v", mode, err)
		}
	}
}
