package chase

// Cell ownership: how a DMatch worker's engine keeps to its share of each
// rule's valuations. HyPart (Section IV) puts every valuation of a rule in
// exactly one cell of the rule's hypercube, owned by one worker. A worker
// engine binds over the whole dataset and cuts every join step to the
// candidates whose cell bits, with those of the variables bound before,
// agree with some cell it owns, so over the workers each valuation is
// enumerated once; a lone engine owns every cell and takes no cut.

import (
	"fmt"
	"math/bits"

	"dcer/internal/hypart"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// ruleCells is a worker engine's share of one rule's hypercube. Extents
// and strides are powers of two, so a cell index is the OR of its
// dimensions' bucket bits, and a partial one (some dimensions fixed) is
// the OR over the variables bound so far: two variables hashing one
// dimension fix the same bits when the rule's equalities hold between
// them.
type ruleCells struct {
	// vars[v] holds the cell bits variable v's tuples fix, by row, and
	// their mask (no column: v fixes none).
	vars  []hypart.VarCells
	owned []uint64
}

// newRuleCells checks c against rule r over d — a cells column as long as
// its relation per variable, a bitmap as wide as the cube — and wraps it.
func newRuleCells(r *rule.Rule, c Cells, d *relation.Dataset) (*ruleCells, error) {
	ok := len(c.Cube.Vars) == len(r.Vars) && len(c.Owned) == (c.Cube.Size()+63)>>6
	for v := 0; ok && v < len(r.Vars); v++ {
		col := c.Cube.Vars[v].Cells
		ok = col == nil || len(col) == len(d.Relations[r.Vars[v].RelIdx].TIDs())
	}
	if !ok {
		return nil, fmt.Errorf("chase: rule %s: cells that do not fit its variables and the dataset", r.Name)
	}
	return &ruleCells{vars: c.Cube.Vars, owned: c.Owned}, nil
}

// bits returns the cell bits the tuple of row row fixes as variable v.
func (rc *ruleCells) bits(v int, row int32) int32 {
	if col := rc.vars[v].Cells; col != nil {
		return col[row]
	}
	return 0
}

// mask returns the cell bits the variables of bound fix.
func (rc *ruleCells) mask(bound uint64) int32 {
	var m int32
	for ; bound != 0; bound &= bound - 1 {
		m |= rc.vars[bits.TrailingZeros64(bound)].Mask
	}
	return m
}

// fitsFor returns the bitmap of the partial cell indexes over mask (bit k
// set: some owned cell c has c&mask == k).
func (rc *ruleCells) fitsFor(mask int32) []uint64 {
	f := make([]uint64, len(rc.owned))
	for i, word := range rc.owned {
		for ; word != 0; word &= word - 1 {
			k := int32(i<<6+bits.TrailingZeros64(word)) & mask
			f[k>>6] |= 1 << (k & 63)
		}
	}
	return f
}

// share estimates, for the planner, the fraction of variable v's
// candidates the cut keeps once the variables of bound are bound: under
// uniform hashing, the owned share of the partial cells over the widened
// mask over that over the bound mask. 1 in a lone engine.
func (rc *ruleCells) share(bound uint64, v int) float64 {
	if rc == nil {
		return 1
	}
	owned := func(mask int32) (n float64) {
		for _, w := range rc.fitsFor(mask) {
			n += float64(bits.OnesCount64(w))
		}
		return n / float64(uint64(1)<<bits.OnesCount32(uint32(mask)))
	}
	before := rc.mask(bound)
	return owned(before|rc.vars[v].Mask) / max(owned(before), 1e-9)
}

// fits reports whether partial cell index k is set in bitmap f.
func fits(f []uint64, k int32) bool { return f[k>>6]&(1<<(k&63)) != 0 }

// cellStep is a join step's cut: a candidate t of the step's variable
// stays when the partial cell index part|col[row of t] fits, where part
// holds the bits of the variables bound before. mask has the bits fits is
// over: the bound variables' and the step's.
type cellStep struct {
	col  []int32
	fits []uint64
	mask int32
}

// cutOrders gives every join step whose variable fixes cell bits its cut,
// over the bits its order has fixed once it binds, and every order the
// bitmap over its seed pattern's bits that ownsSeed tests a drain job's
// pair against.
func (br *boundRule) cutOrders() {
	rc := br.cells
	if rc == nil {
		return
	}
	for _, os := range [][]joinOrder{br.orders, br.seeds} {
		for i := range os {
			o := &os[i]
			mask := rc.mask(o.bound)
			o.fits = rc.fitsFor(mask)
			for k := range o.steps {
				st := &o.steps[k]
				mask |= rc.vars[st.v].Mask
				if col := rc.vars[st.v].Cells; col != nil {
					st.cell = &cellStep{col: col, fits: rc.fitsFor(mask), mask: mask}
				}
			}
		}
	}
}

// ownsSeed reports whether the cell bits the seed binding of order o
// fixes (x for variable v1, y for v2) fit some owned cell: the test a
// drain job passes before it is run. A lone engine owns every seed.
func (br *boundRule) ownsSeed(o *joinOrder, rows []int32, v1, v2 int, x, y relation.TID) bool {
	rc := br.cells
	return rc == nil || fits(o.fits, rc.bits(v1, rows[x])|rc.bits(v2, rows[y]))
}

// cut keeps, in depth's buffer, the candidates ts of step st whose cell
// bits fit with the bound variables' (c.part).
func (c *evalCtx) cut(cs *cellStep, ts []relation.TID, depth int) []relation.TID {
	out := c.candBuf(depth)
	for _, t := range ts {
		if fits(cs.fits, c.part|cs.col[c.rows[t]]) {
			out = append(out, t)
		}
	}
	c.candBufs[depth] = out
	return out
}

// bindCell returns the partial cell index once step st binds t over part,
// the bound variables'.
func (c *evalCtx) bindCell(st *joinStep, part int32, t relation.TID) int32 {
	if cs := st.cell; cs != nil {
		return part | cs.col[c.rows[t]]
	}
	return part
}
