package main

import (
	"context"
	"sync"
	"time"

	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/session"
	"github.com/adamant-db/adamant/internal/sql"
	"github.com/adamant-db/adamant/internal/tpch"
)

// frontend times the layers a query crosses before it reaches the device
// — sql, graph, exec's estimate, session's admission — by calling each
// layer's public function directly on the workload's SQL and catalog. They
// take tens of microseconds against an op of milliseconds, too little to
// separate inside the op span, so each traced op is followed by one such
// pass outside it.
type frontend struct {
	plan  sql.PlanConfig
	opts  exec.Options
	fused bool
	sched *session.Scheduler

	// mu serialises passes: in the mix both clients make them.
	mu     sync.Mutex
	passes int
	parseT, planT, postprocessT,
	fuseT, fingerprintT, pipelinesT,
	estimateT, admitT time.Duration
	nodes int
}

func newFrontend(t *target, raw *tpch.Dataset) *frontend {
	return &frontend{
		plan:  sql.PlanConfig{Catalog: raw.Catalog(), Device: t.dev},
		opts:  exec.Options{Model: exec.Model(t.w.model), ChunkElems: t.w.chunk},
		fused: t.eng.FusionEnabled(),
		sched: session.NewScheduler(session.Config{}),
	}
}

// pass walks every query of an op through the front-end layers once, in
// the order the facade calls them.
func (f *frontend) pass(queries []query) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.passes++
	for _, q := range queries {
		start := time.Now()
		ast, err := sql.Parse(q.sql)
		if err != nil {
			return err
		}
		f.parseT += lap(&start)

		g, err := sql.Plan(ast, f.plan)
		if err != nil {
			return err
		}
		f.planT += lap(&start)

		_ = graph.Fingerprint(g)
		f.fingerprintT += lap(&start)

		fused := graph.Fuse(g)
		f.fuseT += lap(&start)
		if f.fused {
			g = fused
		}

		if _, err := g.BuildPipelines(); err != nil {
			return err
		}
		f.pipelinesT += lap(&start)
		f.nodes += len(g.Nodes())

		demand, err := exec.EstimateDemand(g, f.opts)
		if err != nil {
			return err
		}
		f.estimateT += lap(&start)

		grant, err := f.sched.Admit(context.Background(), session.Request{Demand: demand})
		if err != nil {
			return err
		}
		grant.Release()
		f.admitT += lap(&start)

		// The workloads' queries carry no ORDER BY or LIMIT, so this is
		// the cost PostProcess adds to them: its early return.
		if err := sql.PostProcess(&exec.Result{}, ast); err != nil {
			return err
		}
		f.postprocessT += lap(&start)
	}
	return nil
}

// lap returns the time since *start and restarts it.
func lap(start *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*start)
	*start = now
	return d
}

// perPassUS is a layer's mean time per pass, in microseconds.
func (f *frontend) perPassUS(d time.Duration) float64 {
	if f.passes == 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(f.passes)
}
