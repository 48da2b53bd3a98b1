package experiments

import (
	"fmt"
	"io"

	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
)

// ChunkSweep quantifies the chunk-size trade-off behind the paper's choice
// of 2^25 values: small chunks drown in per-chunk latency and handling,
// oversized chunks lose transfer/compute overlap and spike device memory.
// The sweep runs Q6 under 4-phase pipelined execution around the scaled
// optimum.
func ChunkSweep(cfg Config, w io.Writer) error {
	ds, err := cfg.dataset(100)
	if err != nil {
		return err
	}
	base := cfg.chunkElems()

	t := NewTable("Chunk-size sweep: Q6, 4-phase pipelined, CUDA (virtual seconds)",
		"chunk values", "vs 2^25-scaled", "elapsed s", "chunks", "peak device MiB")
	t.Note = fmt.Sprintf("data scaled by %.5f; the paper's 2^25 corresponds to %d values here", cfg.ratio(), base)

	for _, mult := range []struct {
		label  string
		factor float64
	}{
		{"1/16x", 1.0 / 16}, {"1/4x", 0.25}, {"1x", 1}, {"4x", 4}, {"16x", 16},
	} {
		chunk := int(float64(base) * mult.factor)
		if chunk < 64 {
			chunk = 64
		}
		r, err := newRig(simhw.Setup1)
		if err != nil {
			return err
		}
		g, err := tpch.BuildQuery("Q6", ds, r.cuda)
		if err != nil {
			return err
		}
		res, err := exec.RunContext(cfg.Context(), r.rt, g, exec.Options{Model: exec.FourPhasePipelined, ChunkElems: chunk})
		if err != nil {
			return err
		}
		t.Add(chunk, mult.label, seconds(res.Stats.Elapsed), res.Stats.Chunks,
			fmt.Sprintf("%.1f", float64(res.Stats.PeakDeviceBytes)/(1<<20)))
	}
	return report(w, t)
}
