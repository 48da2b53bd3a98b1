package kernels

import (
	"fmt"

	"github.com/adamant-db/adamant/internal/vec"
)

func argLen(args []vec.Vector) int {
	if len(args) == 0 {
		return 0
	}
	return args[0].Len()
}

// MapMulI32I64 multiplies two int32 columns into an int64 column:
// out[i] = a[i] * b[i]. Args: a(I32), b(I32), out(I64).
var MapMulI32I64 = register(&Kernel{
	Name:   "map_mul_i32_i64",
	NArgs:  3,
	Source: "__kernel map_mul_i32_i64(a, b, out) { out[i] = (long)a[i] * b[i]; }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		a, b, out := args[0].I32(), args[1].I32(), args[2].I64()
		if err := sameLen(len(a), len(b), len(out)); err != nil {
			return err
		}
		parallelRange(ctx, len(a), 1, func(s, e int) {
			for i := s; i < e; i++ {
				out[i] = int64(a[i]) * int64(b[i])
			}
		})
		return nil
	},
})

// MapMulComplementI32I64 computes out[i] = a[i] * (K - b[i]) as an int64,
// the fused form of expressions like extendedprice * (1 - discount) over
// fixed-point columns. Args: a(I32), b(I32), out(I64); params: K.
var MapMulComplementI32I64 = register(&Kernel{
	Name:    "map_mul_complement_i32_i64",
	NArgs:   3,
	NParams: 1,
	Source:  "__kernel map_mul_complement(a, b, out, K) { out[i] = (long)a[i] * (K - b[i]); }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		a, b, out := args[0].I32(), args[1].I32(), args[2].I64()
		if err := sameLen(len(a), len(b), len(out)); err != nil {
			return err
		}
		k := params[0]
		parallelRange(ctx, len(a), 1, func(s, e int) {
			for i := s; i < e; i++ {
				out[i] = int64(a[i]) * (k - int64(b[i]))
			}
		})
		return nil
	},
})

// MapAddI64 adds two int64 columns. Args: a(I64), b(I64), out(I64).
var MapAddI64 = register(&Kernel{
	Name:   "map_add_i64",
	NArgs:  3,
	Source: "__kernel map_add_i64(a, b, out) { out[i] = a[i] + b[i]; }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		a, b, out := args[0].I64(), args[1].I64(), args[2].I64()
		if err := sameLen(len(a), len(b), len(out)); err != nil {
			return err
		}
		parallelRange(ctx, len(a), 1, func(s, e int) {
			for i := s; i < e; i++ {
				out[i] = a[i] + b[i]
			}
		})
		return nil
	},
})

// MapMulI64 multiplies two int64 columns. Args: a(I64), b(I64), out(I64).
var MapMulI64 = register(&Kernel{
	Name:   "map_mul_i64",
	NArgs:  3,
	Source: "__kernel map_mul_i64(a, b, out) { out[i] = a[i] * b[i]; }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		a, b, out := args[0].I64(), args[1].I64(), args[2].I64()
		if err := sameLen(len(a), len(b), len(out)); err != nil {
			return err
		}
		parallelRange(ctx, len(a), 1, func(s, e int) {
			for i := s; i < e; i++ {
				out[i] = a[i] * b[i]
			}
		})
		return nil
	},
})

// MapScaleI64 multiplies an int64 column by a scalar. Args: a(I64),
// out(I64); params: factor.
var MapScaleI64 = register(&Kernel{
	Name:    "map_scale_i64",
	NArgs:   2,
	NParams: 1,
	Source:  "__kernel map_scale_i64(a, out, f) { out[i] = a[i] * f; }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		a, out := args[0].I64(), args[1].I64()
		if err := sameLen(len(a), len(out)); err != nil {
			return err
		}
		f := params[0]
		parallelRange(ctx, len(a), 1, func(s, e int) {
			for i := s; i < e; i++ {
				out[i] = a[i] * f
			}
		})
		return nil
	},
})

// MapCastI32I64 widens an int32 column to int64. Args: a(I32), out(I64).
var MapCastI32I64 = register(&Kernel{
	Name:   "map_cast_i32_i64",
	NArgs:  2,
	Source: "__kernel map_cast_i32_i64(a, out) { out[i] = (long)a[i]; }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		a, out := args[0].I32(), args[1].I64()
		if err := sameLen(len(a), len(out)); err != nil {
			return err
		}
		parallelRange(ctx, len(a), 1, func(s, e int) {
			for i := s; i < e; i++ {
				out[i] = int64(a[i])
			}
		})
		return nil
	},
})

func sameLen(lens ...int) error {
	for _, l := range lens[1:] {
		if l != lens[0] {
			return fmt.Errorf("%w: mismatched argument lengths %v", ErrBadArgs, lens)
		}
	}
	return nil
}
