package experiments

import (
	"fmt"
	"io"

	"github.com/adamant-db/adamant/internal/cost"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/trace"
	"github.com/adamant-db/adamant/internal/vclock"
)

// AutoPlan measures the cost-catalog auto planner against the full manual
// configuration matrix of the paper's Figures 9/10: Q6 at SF 1 under every
// (driver, execution model) cell by hand, then the same query auto-planned
// from a cold catalog (calibration probes only) and from a warm catalog
// (trained on the manual sweep's traces). The claim under test is the
// feedback loop closing: the warm planner should land within a few percent
// of the best hand-picked cell, and the cold planner should never pick a
// pathological one.
func AutoPlan(cfg Config, w io.Writer) error {
	const sf = 1
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

	r, err := newRig(simhw.Setup1)
	if err != nil {
		return err
	}
	ids := []device.ID{r.cuda, r.oclGPU, r.oclCPU, r.omp}
	rows := int64(ds.Lineitem.Rows())

	// Manual sweep: every (driver, model) cell by hand, traces feeding the
	// warm catalog exactly as the engine's own feedback path would.
	warmCat := cost.New()
	manual := NewTable("Manual sweep: Q6 under every (driver, model) cell (virtual seconds)",
		"query", "SF", "driver", "model", "elapsed s")
	manual.Note = fmt.Sprintf("data scaled by %.5f; chunk %d values", cfg.ratio(), cfg.chunkElems())
	var best vclock.Duration
	bestCell := ""
	for _, drv := range r.drivers() {
		dev, err := r.rt.Device(drv.ID)
		if err != nil {
			return err
		}
		name := dev.Info().Name
		for _, m := range models {
			g, err := tpch.BuildQuery("Q6", ds, drv.ID)
			if err != nil {
				return err
			}
			rec := trace.NewRecorder()
			res, err := exec.RunContext(cfg.Context(), r.rt, g, exec.Options{
				Model: m.model, ChunkElems: cfg.chunkElems(), Recorder: rec,
			})
			if err != nil {
				return err
			}
			warmCat.ObserveSpans(rec.Spans())
			warmCat.ObserveQuery(m.model.String(), name, rows, res.Stats.Elapsed)
			if bestCell == "" || res.Stats.Elapsed < best {
				best = res.Stats.Elapsed
				bestCell = drv.Label + "/" + m.label
			}
			manual.Add("Q6", sf, drv.Label, m.label, seconds(res.Stats.Elapsed))
		}
	}
	if err := report(w, manual); err != nil {
		return err
	}

	// Cold: calibration probes only — the planner has never seen the query.
	coldCat := cost.New()
	if err := cost.Calibrate(r.rt, ids, coldCat); err != nil {
		return err
	}
	cold := NewTable("Auto, cold catalog: calibration probes only (virtual seconds)",
		"query", "model", "chunk", "device", "elapsed s", "vs best")
	cold.Note = fmt.Sprintf("best manual cell: %s at %s", bestCell, seconds(best))
	if err := runAutoCell(cfg, r, ds, coldCat, best, cold); err != nil {
		return err
	}
	if err := report(w, cold); err != nil {
		return err
	}

	// Warm: the manual sweep's own traces close the loop.
	warm := NewTable("Auto, warm catalog: trained on the manual sweep (virtual seconds)",
		"query", "model", "chunk", "device", "elapsed s", "vs best")
	warm.Note = fmt.Sprintf("best manual cell: %s at %s", bestCell, seconds(best))
	if err := runAutoCell(cfg, r, ds, warmCat, best, warm); err != nil {
		return err
	}
	return report(w, warm)
}

// runAutoCell plans Q6 from the catalog, executes the decision, and adds
// the row (with its ratio against the best manual cell) to the table.
func runAutoCell(cfg Config, r *rig, ds *tpch.Dataset, cat *cost.Catalog, best vclock.Duration, t *Table) error {
	ids := []device.ID{r.cuda, r.oclGPU, r.oclCPU, r.omp}
	g, err := tpch.BuildQuery("Q6", ds, r.cuda)
	if err != nil {
		return err
	}
	dec, err := cost.NewPlanner(cat).Plan(g, r.rt, cost.PlanOptions{
		Candidates: ids, MaxChunk: cfg.chunkElems(),
	})
	if err != nil {
		return err
	}
	res, err := exec.RunContext(cfg.Context(), r.rt, g, exec.Options{
		Model: dec.Model, ChunkElems: dec.ChunkElems,
		PlanNotes: dec.Notes, Replan: dec.Replan(),
	})
	if err != nil {
		return err
	}
	t.Add("Q6", dec.Model.String(), dec.ChunkElems, dec.Driver,
		seconds(res.Stats.Elapsed), ratioStr(res.Stats.Elapsed, best))
	return nil
}
