package experiments

import (
	"fmt"
	"io"

	"github.com/adamant-db/adamant/internal/cost"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/vclock"
)

// AutoPlan measures the rehearsal auto planner against the full manual
// configuration matrix of the paper's Figures 9/11: each evaluated query
// under every (driver, execution model) cell by hand, then the same query
// auto-planned twice on one catalog. The cold plan finds no rate for the
// query's shape and rehearses every cell on fresh device instances; the
// warm plan reads those rates back and rehearses none. The claim under
// test: both land on the best manual cell, because a rehearsal is the run.
// The quick profile plans at SF 1; the full profile adds SF 100.
func AutoPlan(cfg Config, w io.Writer) error {
	sfs := []float64{1}
	if !cfg.Quick {
		sfs = append(sfs, 100)
	}
	manual := NewTable("Manual sweep: every (driver, model) cell (virtual microseconds)",
		"query", "SF", "driver", "oaat", "chunked", "pipelined", "4p-chunked", "4p-pipelined")
	manual.Note = fmt.Sprintf("data scaled by %.5f; chunk %d values", cfg.ratio(), cfg.chunkElems())
	auto := NewTable("Auto planner: cold catalog, then warm (virtual microseconds)",
		"query", "SF", "catalog", "driver", "model", "chunk", "rehearsals", "elapsed us", "best us", "vs best")
	auto.Note = "rehearsals: (driver, model) cells run on fresh instances to fill catalog misses"
	cat := cost.New()
	for _, sf := range sfs {
		ds, err := cfg.dataset(sf)
		if err != nil {
			return err
		}
		r, err := newRig(simhw.Setup1)
		if err != nil {
			return err
		}
		for _, q := range []string{"Q1", "Q3", "Q4", "Q6"} {
			var best vclock.Duration
			for _, drv := range r.drivers() {
				row := []any{q, sf, drv.Label}
				for _, m := range exec.Models() {
					g, err := tpch.BuildQuery(q, ds, drv.ID)
					if err != nil {
						return err
					}
					res, err := exec.RunContext(cfg.Context(), r.rt, g, exec.Options{
						Model: m, ChunkElems: cfg.chunkElems(),
					})
					if err != nil {
						return err
					}
					if best == 0 || res.Stats.Elapsed < best {
						best = res.Stats.Elapsed
					}
					row = append(row, micros(res.Stats.Elapsed))
				}
				manual.Add(row...)
			}
			for _, label := range []string{"cold", "warm"} {
				if err := runAutoCell(cfg, r, ds, q, cat, best, label, auto); err != nil {
					return err
				}
			}
		}
	}
	return report(w, manual, auto)
}

// runAutoCell plans the query from the catalog, executes the decision on
// the rig's live devices, feeds the run back into the catalog the way the
// engine does, and adds the row (with its ratio against the best manual
// cell) to the table.
func runAutoCell(cfg Config, r *rig, ds *tpch.Dataset, q string, cat *cost.Catalog, best vclock.Duration, label string, t *Table) error {
	g, err := tpch.BuildQuery(q, ds, r.cuda)
	if err != nil {
		return err
	}
	var cands []cost.Candidate
	for i, mk := range r.makers {
		cands = append(cands, cost.Candidate{ID: device.ID(i), New: mk})
	}
	dec, err := cost.NewPlanner(cat).Plan(g, r.rt, cost.PlanOptions{
		Candidates: cands, MaxChunk: cfg.chunkElems(),
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
	cat.ObserveQuery(dec.Model.String(), dec.Driver, dec.Shape, dec.Rows, res.Stats.Elapsed)
	driver := dec.Driver
	for _, drv := range r.drivers() {
		if drv.ID == dec.Device {
			driver = drv.Label
		}
	}
	t.Add(q, ds.Config.SF, label, driver, dec.Model.String(), dec.ChunkElems, dec.Rehearsals,
		micros(res.Stats.Elapsed), micros(best), ratioStr(res.Stats.Elapsed, best))
	return nil
}
