package kernels

import (
	"github.com/adamant-db/adamant/internal/vec"
)

// MapBoundaryI32 emits the group-transition indicator of a sorted key
// column: out[i] = 1 when in[i] differs from in[i-1] (out[0] = 0). An
// inclusive prefix sum over the output yields each row's group index, the
// PREFIX_SUM input SORT_AGG expects. Args: in(I32), out(I32).
var MapBoundaryI32 = register(&Kernel{
	Name:   "map_boundary_i32",
	NArgs:  2,
	Source: "__kernel map_boundary_i32(in, out) { out[i] = i > 0 && in[i] != in[i-1]; }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		in, out := args[0].I32(), args[1].I32()
		if err := sameLen(len(in), len(out)); err != nil {
			return err
		}
		parallelRange(ctx, len(in), 1, func(s, e int) {
			for i := s; i < e; i++ {
				if i > 0 && in[i] != in[i-1] {
					out[i] = 1
				} else {
					out[i] = 0
				}
			}
		})
		return nil
	},
})

// PrefixSumInclusiveI32 computes the inclusive prefix sum of an int32
// column: out[i] = sum(in[0..i]). Combined with MapBoundaryI32 it yields
// group indexes over sorted keys. Args: in(I32), out(I32).
var PrefixSumInclusiveI32 = register(&Kernel{
	Name:   "prefix_sum_inclusive_i32",
	NArgs:  2,
	Source: "__kernel prefix_sum_inclusive_i32(in, out) { /* blockwise scan */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		in, out := args[0].I32(), args[1].I32()
		if err := sameLen(len(in), len(out)); err != nil {
			return err
		}
		scanExclusiveI32(ctx, in, out)
		parallelRange(ctx, len(in), 1, func(s, e int) {
			for i := s; i < e; i++ {
				out[i] += in[i]
			}
		})
		return nil
	},
	Traffic: prefixTraffic,
})
