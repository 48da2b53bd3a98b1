package experiments

import (
	"fmt"
	"io"

	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/vclock"
)

// FuseSpeedup measures operator fusion on Q6 at SF 100 on CUDA: the same
// plan executed unfused (eight kernel launches plus bitmap and gathered
// intermediates bounced through device memory) and fused (one single-pass
// kernel over the four base columns), under every execution model. The
// eliminated materialization traffic is the same effect behind the paper's
// Figure 11 gap to HeavyDB, whose JIT-compiled queries run exactly such
// fused kernels; here the fused path closes that gap inside the ADAMANT
// primitive framework itself.
func FuseSpeedup(cfg Config, w io.Writer) error {
	const sf = 100
	ds, err := cfg.dataset(sf)
	if err != nil {
		return err
	}

	models := []struct {
		label string
		model exec.Model
	}{
		{"oaat", exec.OperatorAtATime},
		{"chunked", exec.Chunked},
		{"pipelined", exec.Pipelined},
		{"4p-chunked", exec.FourPhaseChunked},
		{"4p-pipelined", exec.FourPhasePipelined},
	}

	unfused := NewTable("Fusion off: Q6 as an eight-primitive chain (virtual seconds)",
		"query", "SF", "model", "elapsed s", "kernels")
	fused := NewTable("Fusion on: Q6 as one single-pass fused kernel (virtual seconds)",
		"query", "SF", "model", "elapsed s", "kernels", "speedup")
	unfused.Note = fmt.Sprintf("data scaled by %.5f; chunk %d values", cfg.ratio(), cfg.chunkElems())

	for _, m := range models {
		r, err := newRig(simhw.Setup1)
		if err != nil {
			return err
		}
		var elapsed [2]vclock.Duration
		var launches [2]int64
		for i, doFuse := range []bool{false, true} {
			g, err := tpch.BuildQuery("Q6", ds, r.cuda)
			if err != nil {
				return err
			}
			if doFuse {
				g = graph.Fuse(g)
			}
			res, err := exec.RunContext(cfg.Context(), r.rt, g, exec.Options{
				Model: m.model, ChunkElems: cfg.chunkElems(),
			})
			if err != nil {
				return err
			}
			elapsed[i] = res.Stats.Elapsed
			launches[i] = res.Stats.Launches
		}
		unfused.Add("Q6", sf, m.label, seconds(elapsed[0]), launches[0])
		fused.Add("Q6", sf, m.label, seconds(elapsed[1]), launches[1],
			ratioStr(elapsed[0], elapsed[1]))
	}

	return report(w, unfused, fused)
}
