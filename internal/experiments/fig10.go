package experiments

import (
	"fmt"
	"io"

	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
)

// Fig10Overhead reproduces Figure 10: the overhead of the abstraction
// layers, measured as the difference between a query's overall execution
// time and the summed processing time of its individual primitives, per
// driver and query. Expected shape: OpenCL shows the largest overhead
// (explicit per-argument data mapping), CUDA and OpenMP stay small, and
// the overhead is minor relative to total execution either way.
func Fig10Overhead(cfg Config, w io.Writer) error {
	ds, err := cfg.dataset(100)
	if err != nil {
		return err
	}
	r, err := newRig(simhw.Setup1)
	if err != nil {
		return err
	}

	t := NewTable("Figure 10: abstraction-layer overhead (chunked execution)",
		"query", "driver", "total ms", "primitives ms", "transfer ms", "overhead ms", "overhead %")
	t.Note = fmt.Sprintf("TPC-H SF100 scaled by %.5f; chunk %d values", cfg.ratio(), cfg.chunkElems())

	for _, q := range []string{"Q3", "Q4", "Q6"} {
		for _, drv := range r.drivers() {
			g, err := tpch.BuildQuery(q, ds, drv.ID)
			if err != nil {
				return err
			}
			res, err := exec.RunContext(cfg.Context(), r.rt, g, exec.Options{Model: exec.Chunked, ChunkElems: cfg.chunkElems()})
			if err != nil {
				return err
			}
			total := res.Stats.Elapsed
			prims := res.Stats.KernelTime
			transfer := res.Stats.TransferTime
			over := total - prims - transfer
			if over < 0 {
				over = 0
			}
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(over) / float64(total)
			}
			t.Add(q, drv.Label, millis(total), millis(prims), millis(transfer), millis(over), fmt.Sprintf("%.1f", pct))
		}
	}
	return report(w, t)
}
