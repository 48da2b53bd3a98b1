package experiments

import (
	"fmt"
	"io"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
)

// Fig6Timelines reproduces Figure 6's execution-flow diagrams from real
// runs: the copy and compute engine timelines of Q6 under (a) naive chunked
// execution (strictly serial), (b) pipelined execution (transfers overlap
// kernels), and (c) 4-phase pipelined execution (pinned transfers, shorter
// copy spans, same overlap). Each row is one engine; filled spans are busy
// time.
func Fig6Timelines(cfg Config, w io.Writer) error {
	ds, err := cfg.dataset(1)
	if err != nil {
		return err
	}
	// Eight chunks make the copy/compute interleaving visible.
	chunk := ds.Lineitem.Rows()/8 + 64

	for _, model := range []exec.Model{exec.Chunked, exec.Pipelined, exec.FourPhasePipelined} {
		rt := hub.NewRuntime()
		d := simcuda.New(&simhw.RTX2080Ti, nil)
		id, err := rt.Register(d)
		if err != nil {
			return err
		}
		log := &device.EventLog{}
		d.SetEventLog(log)

		g, err := tpch.BuildQuery("Q6", ds, id)
		if err != nil {
			return err
		}
		res, err := exec.RunContext(cfg.Context(), rt, g, exec.Options{Model: model, ChunkElems: chunk})
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "\n== Figure 6: %v — Q6 engine timelines (elapsed %v) ==\n", model, res.Stats.Elapsed)
		device.RenderTimeline(w, log.Events(), 100)
	}
	return nil
}
