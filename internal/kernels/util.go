package kernels

import (
	"github.com/adamant-db/adamant/internal/vec"
)

// FillI64 writes a constant into every element of an int64 buffer. The
// runtime uses it to initialize pipeline-breaker accumulators (e.g. the
// identity of a MIN aggregate) before the first chunk. Args: out(I64);
// params: value.
var FillI64 = register(&Kernel{
	Name:    "fill_i64",
	NArgs:   1,
	NParams: 1,
	Source:  "__kernel fill_i64(out, v) { out[i] = v; }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		out := args[0].I64()
		v := params[0]
		parallelRange(ctx, len(out), 1, func(s, e int) {
			for i := s; i < e; i++ {
				out[i] = v
			}
		})
		return nil
	},
})
