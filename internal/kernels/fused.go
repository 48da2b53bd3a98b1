package kernels

import (
	"fmt"
	"math"
	"sync"

	"github.com/adamant-db/adamant/internal/vec"
)

// The fused kernels execute a whole filter→map→{reduce,materialize} chain in
// one pass over the base columns, the single-pass form the fusion pass over
// internal/graph rewrites fusible pipelines into. Instead of one kernel per
// Table-I primitive with bitmap and gathered-column intermediates bounced
// through device memory, a fused launch is an interpreted micro-program:
// the scalar parameters carry a conjunctive predicate list and a map
// expression, the buffer arguments carry the distinct base columns the
// chain touches, and each row is filtered, mapped and reduced (or
// compacted) without ever leaving registers. This mirrors what data-path
// fusion / kernel compilation buys engines like HeavyDB: no intermediate
// allocations, one launch latency, one streaming read of the inputs. So
// the fused kernels declare no Traffic: the default single streaming pass
// over base columns and outputs, with no materialization penalty, is their
// whole price.
//
// Parameter layout, shared by both fused kernels:
//
//	params[0]            nPred
//	params[1+4p..4+4p]   predicate p: colIdx, CmpOp, lo, hi (AND-combined)
//	then                 mapKind, mapA, mapB, mapK
//	then (agg only)      AggOp
//
// mapKind selects the map expression over column indices mapA/mapB:
//
//	FusedMapCol        int64(col[mapA])            (identity / widening cast)
//	FusedMapMul        int64(a[i]) * int64(b[i])   (map_mul_*)
//	FusedMapMulComp    int64(a[i]) * (K - b[i])    (map_mul_complement_*)
//
// Column indices refer to the leading buffer arguments; the trailing one
// (agg) or two (materialize) arguments are outputs. Columns may be I32 or
// I64 and must share one length.

// Map expression kinds of the fused kernels.
const (
	FusedMapCol int64 = iota
	FusedMapMul
	FusedMapMulComp
)

// fusedCol reads a base column of either width as int64, the register file
// of the interpreted row loop.
type fusedCol struct {
	i32 []int32
	i64 []int64
}

func (c fusedCol) at(i int) int64 {
	if c.i32 != nil {
		return int64(c.i32[i])
	}
	return c.i64[i]
}

// fusedPred is one conjunct, normalized at decode time to an inclusive
// range test v in [lo, hi] (negated for CmpNe) so the row loop runs two
// compares with no operator dispatch.
type fusedPred struct {
	col    fusedCol
	lo, hi int64
	ne     bool
}

// newFusedPred normalizes a (op, lo, hi) predicate to range form. Unknown
// operators yield an empty range, matching CmpOp.Matches returning false.
func newFusedPred(col fusedCol, op CmpOp, lo, hi int64) fusedPred {
	if op == CmpNe {
		return fusedPred{col: col, lo: lo, hi: lo, ne: true}
	}
	rlo, rhi, ok := InclusiveRange(op, lo, hi)
	if !ok {
		return fusedPred{col: col, lo: 1, hi: 0} // e.g. v < MinInt64: never
	}
	return fusedPred{col: col, lo: rlo, hi: rhi}
}

// InclusiveRange normalizes a comparison to the inclusive range [rlo, rhi]
// of values it accepts. ok is false for CmpNe, for unknown operators and
// for a strict bound at the int64 extremes, where the ±1 step would
// overflow (such a comparison accepts no value).
func InclusiveRange(op CmpOp, lo, hi int64) (rlo, rhi int64, ok bool) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	switch op {
	case CmpLt:
		return minI, lo - 1, lo != minI
	case CmpLe:
		return minI, lo, true
	case CmpGt:
		return lo + 1, maxI, lo != maxI
	case CmpGe:
		return lo, maxI, true
	case CmpEq:
		return lo, lo, true
	case CmpBetween:
		return lo, hi, true
	default:
		return 0, 0, false
	}
}

// filterDense scans rows [base, base+n) and writes surviving offsets
// (relative to base) into sel, returning the count. The typed loops keep
// the hot path free of per-row dispatch.
func (pr *fusedPred) filterDense(base, n int, sel []int32) int {
	c := 0
	lo, hi, ne := pr.lo, pr.hi, pr.ne
	if s := pr.col.i32; s != nil {
		for i, v := range s[base : base+n] {
			if (int64(v) >= lo && int64(v) <= hi) != ne {
				sel[c] = int32(i)
				c++
			}
		}
		return c
	}
	for i, v := range pr.col.i64[base : base+n] {
		if (v >= lo && v <= hi) != ne {
			sel[c] = int32(i)
			c++
		}
	}
	return c
}

// filterSel refines an existing selection in place, returning the new count.
func (pr *fusedPred) filterSel(base int, sel []int32) int {
	c := 0
	lo, hi, ne := pr.lo, pr.hi, pr.ne
	if s := pr.col.i32; s != nil {
		for _, idx := range sel {
			if v := int64(s[base+int(idx)]); (v >= lo && v <= hi) != ne {
				sel[c] = idx
				c++
			}
		}
		return c
	}
	s := pr.col.i64
	for _, idx := range sel {
		if v := s[base+int(idx)]; (v >= lo && v <= hi) != ne {
			sel[c] = idx
			c++
		}
	}
	return c
}

// fusedProg is the decoded micro-program of one fused launch.
type fusedProg struct {
	cols    []fusedCol
	preds   []fusedPred
	mapKind int64
	mapA    fusedCol
	mapB    fusedCol
	mapK    int64
	rows    int
}

// fusedBlockRows is the selection-vector block size: big enough to
// amortize the per-predicate loop setup, small enough that the selection
// and the touched column slices stay cache-resident.
const fusedBlockRows = 1024

// selectBlock evaluates the conjunctive predicate list over rows
// [base, base+n) and writes the surviving offsets (relative to base, in
// ascending order) into sel, returning the survivor count. The first
// predicate scans densely; the rest refine the shrinking selection, so a
// selective leading conjunct short-circuits the others for most rows.
func (p *fusedProg) selectBlock(base, n int, sel []int32) int {
	if len(p.preds) == 0 {
		for i := 0; i < n; i++ {
			sel[i] = int32(i)
		}
		return n
	}
	c := p.preds[0].filterDense(base, n, sel)
	for k := 1; k < len(p.preds) && c > 0; k++ {
		c = p.preds[k].filterSel(base, sel[:c])
	}
	return c
}

// mapped evaluates the map expression for one row.
func (p *fusedProg) mapped(i int) int64 {
	switch p.mapKind {
	case FusedMapMul:
		return p.mapA.at(i) * p.mapB.at(i)
	case FusedMapMulComp:
		return p.mapA.at(i) * (p.mapK - p.mapB.at(i))
	default:
		return p.mapA.at(i)
	}
}

// decodeFused parses and validates the shared program prefix. nOut is the
// number of trailing output arguments the caller owns.
func decodeFused(name string, args []vec.Vector, params []int64, nOut int) (*fusedProg, int, error) {
	nCols := len(args) - nOut
	if nCols < 1 {
		return nil, 0, fmt.Errorf("%w: %s needs at least one column argument", ErrBadArgs, name)
	}
	if len(params) < 1 {
		return nil, 0, fmt.Errorf("%w: %s missing predicate count", ErrBadArgs, name)
	}
	nPred := int(params[0])
	if nPred < 0 || len(params) < 1+4*nPred+4 {
		return nil, 0, fmt.Errorf("%w: %s has %d params for %d predicates", ErrBadArgs, name, len(params), nPred)
	}
	p := &fusedProg{cols: make([]fusedCol, nCols), rows: args[0].Len()}
	for c := 0; c < nCols; c++ {
		switch args[c].Type() {
		case vec.Int32:
			p.cols[c] = fusedCol{i32: args[c].I32()}
		case vec.Int64:
			p.cols[c] = fusedCol{i64: args[c].I64()}
		default:
			return nil, 0, fmt.Errorf("%w: %s column %d must be Int32 or Int64, got %s", ErrBadArgs, name, c, args[c].Type())
		}
		if args[c].Len() != p.rows {
			return nil, 0, fmt.Errorf("%w: mismatched argument lengths %d vs %d", ErrBadArgs, args[c].Len(), p.rows)
		}
	}
	colAt := func(idx int64) (fusedCol, error) {
		if idx < 0 || int(idx) >= nCols {
			return fusedCol{}, fmt.Errorf("%w: %s column index %d out of %d columns", ErrBadArgs, name, idx, nCols)
		}
		return p.cols[idx], nil
	}
	p.preds = make([]fusedPred, nPred)
	for i := 0; i < nPred; i++ {
		base := 1 + 4*i
		col, err := colAt(params[base])
		if err != nil {
			return nil, 0, err
		}
		p.preds[i] = newFusedPred(col, CmpOp(params[base+1]), params[base+2], params[base+3])
	}
	base := 1 + 4*nPred
	p.mapKind = params[base]
	var err error
	if p.mapA, err = colAt(params[base+1]); err != nil {
		return nil, 0, err
	}
	if p.mapKind == FusedMapMul || p.mapKind == FusedMapMulComp {
		if p.mapB, err = colAt(params[base+2]); err != nil {
			return nil, 0, err
		}
	}
	p.mapK = params[base+3]
	return p, base + 4, nil
}

// FusedFilterAgg filters, maps and block-reduces in one pass: the fused form
// of a FILTER_BITMAP* → (AND…) → MATERIALIZE* → MAP → AGG_BLOCK chain. The
// result accumulates into out[0] across chunks like agg_block_*. Args:
// col0..colN-1 (I32/I64), out(I64 len 1); params: fused program + AggOp.
var FusedFilterAgg = register(&Kernel{
	Name:    "fused_filter_agg",
	NArgs:   -1,
	NParams: 1,
	Source:  "__kernel fused_filter_agg(cols..., out, prog) { if (pred(i)) acc = agg(acc, map(i)); }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		if len(args) < 2 {
			return fmt.Errorf("%w: fused_filter_agg needs columns and an output", ErrBadArgs)
		}
		prog, next, err := decodeFused("fused_filter_agg", args, params, 1)
		if err != nil {
			return err
		}
		if len(params) < next+1 {
			return fmt.Errorf("%w: fused_filter_agg missing aggregate op", ErrBadArgs)
		}
		op := AggOp(params[next])
		out := args[len(args)-1]
		if out.Type() != vec.Int64 || out.Len() != 1 {
			return fmt.Errorf("%w: fused_filter_agg output must be I64 len 1", ErrBadArgs)
		}
		w := ctx.workers()
		span := (prog.rows + w - 1) / w
		if span == 0 {
			span = 1
		}
		nSpans := (prog.rows + span - 1) / span
		partial := make([]int64, nSpans)
		var wg sync.WaitGroup
		for si := 0; si < nSpans; si++ {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				s, e := si*span, (si+1)*span
				if e > prog.rows {
					e = prog.rows
				}
				var sel [fusedBlockRows]int32
				acc := op.identity()
				for base := s; base < e; base += fusedBlockRows {
					n := e - base
					if n > fusedBlockRows {
						n = fusedBlockRows
					}
					for _, idx := range sel[:prog.selectBlock(base, n, sel[:])] {
						acc = op.combine(acc, prog.mapped(base+int(idx)))
					}
				}
				partial[si] = acc
			}(si)
		}
		wg.Wait()
		acc := op.identity()
		for _, p := range partial {
			acc = op.combine2(acc, p)
		}
		args[len(args)-1].I64()[0] = op.combine2(out.I64()[0], acc)
		return nil
	},
})

// FusedFilterMat filters, maps and compacts survivors into a dense column
// in ascending row order (bit-identical to the unfused MATERIALIZE path),
// writing the survivor count to outCount[0]: the fused form of a filter
// chain feeding a MATERIALIZE (optionally through a MAP). The output takes
// the chain's original type (I32 for a bare materialize of an int32
// column, I64 after a widening map). Args: col0..colN-1 (I32/I64),
// out(I32/I64), outCount(I64 len 1); params: fused program.
var FusedFilterMat = register(&Kernel{
	Name:    "fused_filter_mat",
	NArgs:   -1,
	NParams: 1,
	Source:  "__kernel fused_filter_mat(cols..., out, count) { /* single-pass compaction */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		if len(args) < 3 {
			return fmt.Errorf("%w: fused_filter_mat needs columns, an output and a count", ErrBadArgs)
		}
		prog, _, err := decodeFused("fused_filter_mat", args, params, 2)
		if err != nil {
			return err
		}
		out := args[len(args)-2]
		outCount := args[len(args)-1].I64()
		var assign func(dst, src int)
		switch out.Type() {
		case vec.Int32:
			v := out.I32()
			assign = func(dst, src int) { v[dst] = int32(prog.mapped(src)) }
		case vec.Int64:
			v := out.I64()
			assign = func(dst, src int) { v[dst] = prog.mapped(src) }
		default:
			return fmt.Errorf("%w: fused_filter_mat output must be I32 or I64", ErrBadArgs)
		}
		if len(outCount) != 1 {
			return fmt.Errorf("%w: fused_filter_mat count buffer must have 1 element", ErrBadArgs)
		}

		// Two-phase compaction, like filter_pos: per-span survivor counts,
		// exclusive prefix, then an in-order scatter. Deterministic and
		// identical to the bitmap materialization order.
		w := ctx.workers()
		span := (prog.rows + w - 1) / w
		if span == 0 {
			span = 1
		}
		nSpans := (prog.rows + span - 1) / span
		counts := make([]int, nSpans+1)
		var wg sync.WaitGroup
		for si := 0; si < nSpans; si++ {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				s, e := si*span, (si+1)*span
				if e > prog.rows {
					e = prog.rows
				}
				var sel [fusedBlockRows]int32
				c := 0
				for base := s; base < e; base += fusedBlockRows {
					n := e - base
					if n > fusedBlockRows {
						n = fusedBlockRows
					}
					c += prog.selectBlock(base, n, sel[:])
				}
				counts[si+1] = c
			}(si)
		}
		wg.Wait()
		for i := 1; i <= nSpans; i++ {
			counts[i] += counts[i-1]
		}
		total := counts[nSpans]
		if total > out.Len() {
			return fmt.Errorf("%w: fused_filter_mat output holds %d values, need %d", ErrBadArgs, out.Len(), total)
		}
		for si := 0; si < nSpans; si++ {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				s, e := si*span, (si+1)*span
				if e > prog.rows {
					e = prog.rows
				}
				var sel [fusedBlockRows]int32
				at := counts[si]
				for base := s; base < e; base += fusedBlockRows {
					n := e - base
					if n > fusedBlockRows {
						n = fusedBlockRows
					}
					for _, idx := range sel[:prog.selectBlock(base, n, sel[:])] {
						assign(at, base+int(idx))
						at++
					}
				}
			}(si)
		}
		wg.Wait()
		outCount[0] = int64(total)
		return nil
	},
})
