package experiments

import (
	"errors"
	"fmt"
	"io"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/heavysim"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/vclock"
)

// fig11Models are the execution models Figure 11 compares.
var fig11Models = []exec.Model{exec.Chunked, exec.FourPhaseChunked, exec.FourPhasePipelined}

// Fig11Models reproduces Figure 11 (left): Q3, Q4, Q6 at larger scale
// factors under chunked vs 4-phase chunked vs 4-phase pipelined execution,
// for the OpenCL and CUDA GPU drivers. Expected shapes: 4-phase beats
// naive chunked by up to ~3x (best on Q6, worst on Q3); pipelining adds
// little over 4-phase chunked because transfer dominates; OpenCL's 4-phase
// on Q4 is ~2x *slower* than its chunked run (pinned re-mapping and
// per-chunk synchronization with nothing to hide), while CUDA still gains
// ~1.5x there; CUDA beats OpenCL throughout.
func Fig11Models(cfg Config, w io.Writer) error {
	sfs := []float64{100, 120, 140}
	if cfg.Quick {
		sfs = []float64{100}
	}

	t := NewTable("Figure 11: execution model comparison (virtual seconds)",
		"setup", "query", "SF", "driver", "chunked", "4p-chunked", "4p-pipelined", "best vs chunked")
	t.Note = fmt.Sprintf("data scaled by %.5f; chunk %d values (2^25 scaled)", cfg.ratio(), cfg.chunkElems())

	setups := []simhw.Setup{simhw.Setup1}
	if !cfg.Quick {
		// "This performance difference is subject to change with newer
		// GPUs" — include the A100 setup in the full profile.
		setups = append(setups, simhw.Setup2)
	}

	for _, setup := range setups {
		for _, sf := range sfs {
			ds, err := cfg.dataset(sf)
			if err != nil {
				return err
			}
			for _, q := range []string{"Q3", "Q4", "Q6"} {
				r, err := newRig(setup)
				if err != nil {
					return err
				}
				for _, dr := range []struct {
					label string
					id    device.ID
				}{
					{"OpenCL", r.oclGPU},
					{"CUDA", r.cuda},
				} {
					var times [3]vclock.Duration
					for i, model := range fig11Models {
						g, err := tpch.BuildQuery(q, ds, dr.id)
						if err != nil {
							return err
						}
						res, err := exec.RunContext(cfg.Context(), r.rt, g, exec.Options{Model: model, ChunkElems: cfg.chunkElems()})
						if err != nil {
							return err
						}
						times[i] = res.Stats.Elapsed
					}
					best := times[1]
					if times[2] < best {
						best = times[2]
					}
					t.Add(setup.Name, q, sf, dr.label, seconds(times[0]), seconds(times[1]), seconds(times[2]), ratioStr(times[0], best))
				}
			}
		}
	}
	return report(w, t)
}

// Fig11HeavyDB reproduces Figure 11 (right): the HeavyDB baseline with and
// without transfer against ADAMANT's chunked and 4-phase models on CUDA at
// SF 100/120/140. Expected shapes: HeavyDB hot is comparable to chunked;
// ADAMANT gains up to ~2x over hot and ~4x over cold on Q4/Q6; HeavyDB
// aborts on Q3 because the in-place group-by buffer exceeds device memory.
func Fig11HeavyDB(cfg Config, w io.Writer) error {
	sfs := []float64{100, 120, 140}
	if cfg.Quick {
		sfs = []float64{100}
	}

	t := NewTable("Figure 11 (right): HeavyDB comparison (virtual seconds)",
		"query", "SF", "heavydb w transfer", "heavydb w/o transfer", "adamant chunked", "adamant 4p-pipelined")
	t.Note = "HeavyDB capacity checks use logical (unscaled) sizes; OOM marks the paper's Q3 abort"

	for _, sf := range sfs {
		ds, err := cfg.dataset(sf)
		if err != nil {
			return err
		}
		for _, q := range []string{"Q3", "Q4", "Q6"} {
			r, err := newRig(simhw.Setup1)
			if err != nil {
				return err
			}

			var cold, hot string
			db := heavysim.New(heavysim.Config{GPU: &simhw.RTX2080Ti})
			hres, err := db.Run(q, ds)
			switch {
			case errors.Is(err, heavysim.ErrOutOfMemory):
				cold, hot = "OOM", "OOM"
			case err != nil:
				return err
			default:
				cold, hot = seconds(hres.ColdElapsed), seconds(hres.Elapsed)
			}

			var ours [2]string
			for i, model := range []exec.Model{exec.Chunked, exec.FourPhasePipelined} {
				g, err := tpch.BuildQuery(q, ds, r.cuda)
				if err != nil {
					return err
				}
				res, err := exec.RunContext(cfg.Context(), r.rt, g, exec.Options{Model: model, ChunkElems: cfg.chunkElems()})
				if err != nil {
					return err
				}
				ours[i] = seconds(res.Stats.Elapsed)
			}
			t.Add(q, fmt.Sprintf("SF%g", sf), cold, hot, ours[0], ours[1])
		}
	}
	return report(w, t)
}
