package kernels

import (
	"fmt"
	"sync"

	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vec"
)

// CmpOp selects the comparison a filter kernel applies. The operand values
// arrive through the scalar parameters (lo, hi); Between is inclusive on
// both ends.
type CmpOp int64

// Comparison operators.
const (
	CmpLt CmpOp = iota
	CmpLe
	CmpGt
	CmpGe
	CmpEq
	CmpNe
	CmpBetween
)

// String returns the SQL-ish operator spelling.
func (op CmpOp) String() string {
	switch op {
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	case CmpEq:
		return "="
	case CmpNe:
		return "<>"
	case CmpBetween:
		return "between"
	default:
		return fmt.Sprintf("cmp(%d)", int64(op))
	}
}

// Matches evaluates the predicate against a single value.
func (op CmpOp) Matches(v, lo, hi int64) bool {
	switch op {
	case CmpLt:
		return v < lo
	case CmpLe:
		return v <= lo
	case CmpGt:
		return v > lo
	case CmpGe:
		return v >= lo
	case CmpEq:
		return v == lo
	case CmpNe:
		return v != lo
	case CmpBetween:
		return v >= lo && v <= hi
	default:
		return false
	}
}

// FilterBitmapI32 evaluates a predicate over an int32 column and writes a
// bit-packed result, the FILTER_BITMAP primitive. Args: in(I32), out(Bits);
// params: op, lo, hi.
var FilterBitmapI32 = register(&Kernel{
	Name:    "filter_bitmap_i32",
	NArgs:   2,
	NParams: 3,
	Source:  "__kernel filter_bitmap_i32(in, out, op, lo, hi) { out.bit[i] = cmp(in[i]); }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		in := args[0].I32()
		out := args[1]
		if out.Type() != vec.Bits || out.Len() != len(in) {
			return fmt.Errorf("%w: filter_bitmap_i32 output %s for %d inputs", ErrBadArgs, out, len(in))
		}
		op, lo, hi := CmpOp(params[0]), params[1], params[2]
		words := out.Words()
		parallelRange(ctx, len(in), 64, func(s, e int) {
			for w := s / 64; w*64 < e; w++ {
				var bits uint64
				limit := (w + 1) * 64
				if limit > e {
					limit = e
				}
				for i := w * 64; i < limit; i++ {
					if op.Matches(int64(in[i]), lo, hi) {
						bits |= 1 << uint(i%64)
					}
				}
				words[w] = bits
			}
		})
		return nil
	},
})

// FilterBitmapI64 is FilterBitmapI32 for int64 columns (derived measures
// filtered after a MAP). Args: in(I64), out(Bits); params: op, lo, hi.
var FilterBitmapI64 = register(&Kernel{
	Name:    "filter_bitmap_i64",
	NArgs:   2,
	NParams: 3,
	Source:  "__kernel filter_bitmap_i64(in, out, op, lo, hi) { out.bit[i] = cmp(in[i]); }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		in := args[0].I64()
		out := args[1]
		if out.Type() != vec.Bits || out.Len() != len(in) {
			return fmt.Errorf("%w: filter_bitmap_i64 output %s for %d inputs", ErrBadArgs, out, len(in))
		}
		op, lo, hi := CmpOp(params[0]), params[1], params[2]
		words := out.Words()
		parallelRange(ctx, len(in), 64, func(s, e int) {
			for w := s / 64; w*64 < e; w++ {
				var bits uint64
				limit := (w + 1) * 64
				if limit > e {
					limit = e
				}
				for i := w * 64; i < limit; i++ {
					if op.Matches(in[i], lo, hi) {
						bits |= 1 << uint(i%64)
					}
				}
				words[w] = bits
			}
		})
		return nil
	},
})

// BitmapAnd intersects two bitmaps, combining conjunctive filter results.
// Args: a(Bits), b(Bits), out(Bits).
var BitmapAnd = register(&Kernel{
	Name:   "bitmap_and",
	NArgs:  3,
	Source: "__kernel bitmap_and(a, b, out) { out.word[w] = a.word[w] & b.word[w]; }",
	Fn:     bitmapCombine(func(x, y uint64) uint64 { return x & y }),
})

// BitmapOr unions two bitmaps. Args: a(Bits), b(Bits), out(Bits).
var BitmapOr = register(&Kernel{
	Name:   "bitmap_or",
	NArgs:  3,
	Source: "__kernel bitmap_or(a, b, out) { out.word[w] = a.word[w] | b.word[w]; }",
	Fn:     bitmapCombine(func(x, y uint64) uint64 { return x | y }),
})

// BitmapNot complements a bitmap (NOT IN anti-joins). Trailing bits beyond
// the logical length stay unspecified, as consumers mask by length. Args:
// in(Bits), out(Bits).
var BitmapNot = register(&Kernel{
	Name:   "bitmap_not",
	NArgs:  2,
	Source: "__kernel bitmap_not(in, out) { out.word[w] = ~in.word[w]; }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		in, out := args[0], args[1]
		if in.Type() != vec.Bits || out.Type() != vec.Bits {
			return fmt.Errorf("%w: bitmap_not needs Bits args", ErrBadArgs)
		}
		if err := sameLen(in.Len(), out.Len()); err != nil {
			return err
		}
		iw, ow := in.Words(), out.Words()
		parallelRange(ctx, len(ow), 1, func(s, e int) {
			for w := s; w < e; w++ {
				ow[w] = ^iw[w]
			}
		})
		return nil
	},
})

// BitmapAndNot computes a AND NOT b, used for anti-join style filters.
// Args: a(Bits), b(Bits), out(Bits).
var BitmapAndNot = register(&Kernel{
	Name:   "bitmap_andnot",
	NArgs:  3,
	Source: "__kernel bitmap_andnot(a, b, out) { out.word[w] = a.word[w] & ~b.word[w]; }",
	Fn:     bitmapCombine(func(x, y uint64) uint64 { return x &^ y }),
})

func bitmapCombine(f func(x, y uint64) uint64) Func {
	return func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		a, b, out := args[0], args[1], args[2]
		if a.Type() != vec.Bits || b.Type() != vec.Bits || out.Type() != vec.Bits {
			return fmt.Errorf("%w: bitmap combine needs Bits args", ErrBadArgs)
		}
		if err := sameLen(a.Len(), b.Len(), out.Len()); err != nil {
			return err
		}
		aw, bw, ow := a.Words(), b.Words(), out.Words()
		parallelRange(ctx, len(ow), 1, func(s, e int) {
			for w := s; w < e; w++ {
				ow[w] = f(aw[w], bw[w])
			}
		})
		return nil
	}
}

// FilterPosI32 evaluates a predicate over an int32 column and emits the
// ordered position list of matching rows, the FILTER_POSITION primitive.
// The match count is written to outCount[0]; outPos must be sized for the
// worst case (the runtime estimates it, §III-C prepare_output_buffer).
// Args: in(I32), outPos(I32), outCount(I64 len 1); params: op, lo, hi.
var FilterPosI32 = register(&Kernel{
	Name:    "filter_pos_i32",
	NArgs:   3,
	NParams: 3,
	Source:  "__kernel filter_pos_i32(in, pos, count, op, lo, hi) { /* two-phase scan */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		in := args[0].I32()
		outPos := args[1].I32()
		outCount := args[2].I64()
		if len(outCount) != 1 {
			return fmt.Errorf("%w: filter_pos_i32 count buffer must have 1 element", ErrBadArgs)
		}
		op, lo, hi := CmpOp(params[0]), params[1], params[2]

		// Phase 1: per-span match counts (parallel).
		w := ctx.workers()
		span := (len(in) + w - 1) / w
		if span == 0 {
			span = 1
		}
		nSpans := (len(in) + span - 1) / span
		counts := make([]int, nSpans+1)
		var wg sync.WaitGroup
		for si := 0; si < nSpans; si++ {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				s, e := si*span, (si+1)*span
				if e > len(in) {
					e = len(in)
				}
				c := 0
				for i := s; i < e; i++ {
					if op.Matches(int64(in[i]), lo, hi) {
						c++
					}
				}
				counts[si+1] = c
			}(si)
		}
		wg.Wait()

		// Exclusive prefix over span counts.
		for i := 1; i <= nSpans; i++ {
			counts[i] += counts[i-1]
		}
		total := counts[nSpans]
		if total > len(outPos) {
			return fmt.Errorf("%w: filter_pos_i32 output holds %d positions, need %d", ErrBadArgs, len(outPos), total)
		}

		// Phase 2: scatter positions in order (parallel).
		for si := 0; si < nSpans; si++ {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				s, e := si*span, (si+1)*span
				if e > len(in) {
					e = len(in)
				}
				at := counts[si]
				for i := s; i < e; i++ {
					if op.Matches(int64(in[i]), lo, hi) {
						outPos[at] = int32(i)
						at++
					}
				}
			}(si)
		}
		wg.Wait()
		outCount[0] = int64(total)
		return nil
	},
	Traffic: func(args []vec.Vector, _ []int64) simhw.Traffic {
		// Two passes over the input plus a scatter of the survivors.
		return simhw.Traffic{Seq: 2 * args[0].Bytes(), Random: args[1].Bytes() / 4}
	},
})
