package experiments

import (
	"fmt"
	"io"

	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
)

// Fig7Capacity reproduces Figure 7: the scalability limit of
// operator-at-a-time execution.
//
// Left: the logical input size of each evaluated query, and of the full
// dataset, against GPU memory capacities over a scale-factor sweep — only
// some queries fit in device memory, and the full dataset rarely does.
//
// Right: the device-memory footprint over the execution steps of Q6 under
// operator-at-a-time execution, showing intermediates piling on top of the
// resident columns (traced live from the device memory pools).
func Fig7Capacity(cfg Config, w io.Writer) error {
	sfs := []float64{1, 10, 30, 100, 140, 300}

	header := []string{"input"}
	for _, sf := range sfs {
		header = append(header, fmt.Sprintf("SF%g (GiB)", sf))
	}
	t := NewTable("Figure 7 (left): query input sizes vs GPU memory capacities", header...)

	for _, q := range []string{"Q1", "Q3", "Q4", "Q6"} {
		row := []any{q + " input"}
		for _, sf := range sfs {
			b, err := tpch.QueryInputBytes(q, sf)
			if err != nil {
				return err
			}
			row = append(row, gib(b))
		}
		t.Add(row...)
	}
	row := []any{"full dataset"}
	for _, sf := range sfs {
		row = append(row, gib(tpch.DatasetBytes(sf)))
	}
	t.Add(row...)
	for _, gpu := range simhw.AllGPUs() {
		t.Add(fmt.Sprintf("capacity: %s", gpu.Name), gib(gpu.MemoryBytes), "", "", "", "", "")
	}
	if err := report(w, t); err != nil {
		return err
	}

	// Right: Q6 footprint trace under operator-at-a-time.
	ds, err := cfg.dataset(10)
	if err != nil {
		return err
	}
	r, err := newRig(simhw.Setup1)
	if err != nil {
		return err
	}
	g, err := tpch.BuildQuery("Q6", ds, r.cuda)
	if err != nil {
		return err
	}
	res, err := exec.RunContext(cfg.Context(), r.rt, g, exec.Options{Model: exec.OperatorAtATime, Trace: true})
	if err != nil {
		return err
	}

	t2 := NewTable("Figure 7 (right): device memory footprint during Q6, operator-at-a-time",
		"step", "after", "device MiB")
	t2.Note = fmt.Sprintf("dataset SF10 scaled by %.5f; peak %.1f MiB", cfg.ratio(), float64(res.Stats.PeakDeviceBytes)/(1<<20))
	for i, s := range res.Stats.Footprint {
		t2.Add(i+1, s.Label, fmt.Sprintf("%.2f", float64(s.Bytes)/(1<<20)))
	}
	return report(w, t2)
}
