package kernels

import (
	"fmt"
	"math/bits"

	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vec"
)

// materializeTraffic is late materialization: a scan of the values and
// the bitmap through bit extraction, which the SDK prices with its
// extraction penalty (GPUs pay for cooperative bit extraction across
// threads, Figure 9(b); CPUs, which schedule 32-value runs per thread,
// extract almost for free).
func materializeTraffic(args []vec.Vector, _ []int64) simhw.Traffic {
	return simhw.Traffic{Extract: args[0].Bytes() + args[1].Bytes()}
}

// MaterializeBitmapI32 compacts the rows selected by a bitmap into a dense
// int32 column (the MATERIALIZE primitive). The survivor count is written
// to outCount[0]. Args: values(I32), bitmap(Bits), out(I32), outCount(I64
// len 1).
var MaterializeBitmapI32 = register(&Kernel{
	Name:   "materialize_bitmap_i32",
	NArgs:  4,
	Source: "__kernel materialize_bitmap_i32(v, bm, out, count) { /* compaction */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		values := args[0].I32()
		return materializeBitmap(ctx, args, len(values), func(dst, src int) {
			args[2].I32()[dst] = values[src]
		})
	},
	Traffic: materializeTraffic,
})

// MaterializeBitmapI64 is MaterializeBitmapI32 for int64 value columns.
// Args: values(I64), bitmap(Bits), out(I64), outCount(I64 len 1).
var MaterializeBitmapI64 = register(&Kernel{
	Name:   "materialize_bitmap_i64",
	NArgs:  4,
	Source: "__kernel materialize_bitmap_i64(v, bm, out, count) { /* compaction */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		values := args[0].I64()
		return materializeBitmap(ctx, args, len(values), func(dst, src int) {
			args[2].I64()[dst] = values[src]
		})
	},
	Traffic: materializeTraffic,
})

// materializeBitmap runs the shared compaction logic: a word-popcount prefix
// pass to find scatter bases, then a parallel extract.
func materializeBitmap(ctx *Ctx, args []vec.Vector, n int, assign func(dst, src int)) error {
	bm := args[1]
	outCount := args[3].I64()
	if bm.Type() != vec.Bits {
		return fmt.Errorf("%w: materialize bitmap argument must be Bits", ErrBadArgs)
	}
	if bm.Len() != n {
		return fmt.Errorf("%w: bitmap covers %d rows, values have %d", ErrBadArgs, bm.Len(), n)
	}
	if len(outCount) != 1 {
		return fmt.Errorf("%w: materialize count buffer must have 1 element", ErrBadArgs)
	}
	words := bm.Words()
	nw := (n + 63) / 64
	base := make([]int32, nw+1)
	for w := 0; w < nw; w++ {
		ww := words[w]
		if w == nw-1 && n%64 != 0 {
			ww &= 1<<uint(n%64) - 1
		}
		base[w+1] = base[w] + int32(bits.OnesCount64(ww))
	}
	total := int(base[nw])
	if total > args[2].Len() {
		return fmt.Errorf("%w: materialize output holds %d values, need %d", ErrBadArgs, args[2].Len(), total)
	}
	parallelRange(ctx, n, 64, func(s, e int) {
		for w := s / 64; w*64 < e; w++ {
			at := int(base[w])
			limit := (w + 1) * 64
			if limit > e {
				limit = e
			}
			ww := words[w]
			for ww != 0 {
				i := w*64 + bits.TrailingZeros64(ww)
				if i >= limit {
					break
				}
				assign(at, i)
				at++
				ww &= ww - 1
			}
		}
	})
	outCount[0] = int64(total)
	return nil
}

// MaterializePosI32 gathers values by an explicit position list (the
// MATERIALIZE_POSITION primitive). Every position must be in range for the
// value column. Args: values(I32), positions(I32), out(I32).
var MaterializePosI32 = register(&Kernel{
	Name:   "materialize_pos_i32",
	NArgs:  3,
	Source: "__kernel materialize_pos_i32(v, pos, out) { out[i] = v[pos[i]]; }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		values := args[0].I32()
		return materializePos(ctx, args, len(values), func(dst, src int) {
			args[2].I32()[dst] = values[src]
		})
	},
	Traffic: gatherTraffic,
})

// MaterializePosI64 is MaterializePosI32 for int64 value columns. Args:
// values(I64), positions(I32), out(I64).
var MaterializePosI64 = register(&Kernel{
	Name:   "materialize_pos_i64",
	NArgs:  3,
	Source: "__kernel materialize_pos_i64(v, pos, out) { out[i] = v[pos[i]]; }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		values := args[0].I64()
		return materializePos(ctx, args, len(values), func(dst, src int) {
			args[2].I64()[dst] = values[src]
		})
	},
	Traffic: gatherTraffic,
})

func materializePos(ctx *Ctx, args []vec.Vector, nValues int, assign func(dst, src int)) error {
	pos := args[1].I32()
	if args[2].Len() < len(pos) {
		return fmt.Errorf("%w: materialize_pos output holds %d, need %d", ErrBadArgs, args[2].Len(), len(pos))
	}
	var bad error
	parallelRange(ctx, len(pos), 1, func(s, e int) {
		for i := s; i < e; i++ {
			p := int(pos[i])
			if p < 0 || p >= nValues {
				bad = fmt.Errorf("%w: position %d out of %d values", ErrBadArgs, p, nValues)
				return
			}
			assign(i, p)
		}
	})
	return bad
}

// gatherTraffic is a sequential read of the position list and a random
// gather of the values.
func gatherTraffic(args []vec.Vector, _ []int64) simhw.Traffic {
	return simhw.Traffic{Seq: args[1].Bytes(), Random: args[2].Bytes()}
}
