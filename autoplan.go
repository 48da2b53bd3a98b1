package adamant

import (
	"github.com/adamant-db/adamant/internal/cost"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/graph"
)

// CostCatalog is the engine's learned cost store: whole-query virtual-time
// rates per (execution model, driver, plan shape, size bucket), filled by
// rehearsals and every auto-planned run, EWMA-smoothed, deterministically
// serializable (WriteTo/Keys). See Engine.CostCatalog.
type CostCatalog = cost.Catalog

// AutoDecision is one auto-planner outcome: the chosen execution model,
// chunk size, device, and the human-readable notes that become the trace's
// autoplan spans.
type AutoDecision = cost.Decision

// WithAutoPlan arms auto planning: every query through the engine gets its
// device, execution model, and initial chunk size chosen by the cost
// planner (ExecOptions.Model and ChunkElems become hints it overrides). The
// first query of a plan shape is rehearsed: it runs under all five models
// on a fresh instance of every plugged device — built from the constructor
// the device was plugged with, so no live timeline moves — and the fastest
// cell wins. Rehearsing costs one query run per cell; later queries of the
// same shape and size bucket read the measured rates back from the catalog
// and rehearse nothing, and every auto-planned run's elapsed time feeds the
// catalog. When observed pipeline cardinality drifts 2x from the
// optimizer's estimate mid-query, the executor restarts the attempt once
// with a re-sized chunk (bit-identical results by construction — the same
// restart mechanism failover uses). Auto-planning engines accept devices
// through Plug and PlugMaker only: PlugDevice hands over one instance and
// no way to build a fresh one.
func WithAutoPlan() EngineOption {
	return func(c *engineConfig) { c.auto = true }
}

// AutoPlanEnabled reports whether the engine auto-plans queries.
func (e *Engine) AutoPlanEnabled() bool { return e.auto }

// CostCatalog exposes the engine's learned cost catalog for inspection,
// serialization (WriteTo), or pre-warming from a previous run (load with
// cost.Read and SeedCatalog). Nil without WithAutoPlan.
func (e *Engine) CostCatalog() *CostCatalog {
	e.autoMu.Lock()
	defer e.autoMu.Unlock()
	return e.catalog
}

// SeedCatalog replaces the engine's catalog contents with a previously
// serialized one (see CostCatalog().WriteTo): a warm catalog reproduces the
// plans of the engine that wrote it and rehearses none of the cells it
// holds.
func (e *Engine) SeedCatalog(c *CostCatalog) {
	if !e.auto || c == nil {
		return
	}
	e.autoMu.Lock()
	e.catalog = c
	e.autoMu.Unlock()
}

// autoPlan plans the graph against every plugged device. The lock is not
// held while planning, since rehearsals call the plugged constructors:
// concurrent first queries of one shape may each rehearse it, and record
// the same rates.
func (e *Engine) autoPlan(g *graph.Graph) (*cost.Decision, error) {
	e.autoMu.Lock()
	cat, cands := e.catalog, e.candidates
	e.autoMu.Unlock()
	return cost.NewPlanner(cat).Plan(g, e.rt, cost.PlanOptions{Candidates: cands})
}

// observeAutoPlan feeds a finished auto-planned query back into the
// catalog — the whole-query rate of the cell it ran, only when the run
// succeeded (a faulted run's elapsed time is not the configuration's cost).
func (e *Engine) observeAutoPlan(dec *cost.Decision, opts exec.Options, res *exec.Result, runErr error) {
	if runErr == nil && res != nil {
		e.CostCatalog().ObserveQuery(opts.Model.String(), dec.Driver, dec.Shape, dec.Rows, res.Stats.Elapsed)
	}
	if t := e.tele; t != nil {
		t.autoplanQueries.Add(1, dec.Driver, opts.Model.String())
		if res != nil && res.Stats.Replans > 0 {
			t.autoplanReplans.Add(float64(res.Stats.Replans), opts.Model.String())
		}
	}
}
