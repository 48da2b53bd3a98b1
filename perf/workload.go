package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"github.com/adamant-db/adamant"
	"github.com/adamant-db/adamant/internal/tpch"
)

// The four TPC-H queries in the facade's SQL dialect (the same texts
// internal/sql's tests pin against tpch.RefQ*).
const (
	sqlQ1 = `SELECT l_rfls, SUM(l_quantity) AS sum_qty,
	                SUM(l_extendedprice * (100 - l_discount)) AS sum_rev, COUNT(*) AS cnt
	         FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_rfls`
	sqlQ3 = `SELECT l_orderkey, SUM(l_extendedprice * (100 - l_discount)) AS revenue
	         FROM lineitem
	         WHERE l_shipdate > DATE '1995-03-15'
	           AND l_orderkey IN (
	             SELECT o_orderkey FROM orders
	             WHERE o_orderdate < DATE '1995-03-15'
	               AND o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment = 1))
	         GROUP BY l_orderkey`
	sqlQ4 = `SELECT o_orderpriority, COUNT(*) AS order_count
	         FROM orders
	         WHERE o_orderdate >= DATE '1993-07-01' AND o_orderdate < DATE '1993-10-01'
	           AND o_orderkey IN (SELECT l_orderkey FROM lineitem WHERE l_commitdate < l_receiptdate)
	         GROUP BY o_orderpriority`
	sqlQ6 = `SELECT SUM(l_extendedprice * l_discount) AS revenue
	         FROM lineitem
	         WHERE l_shipdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'
	           AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24`
)

// query is one SQL text with the shape of its result: the group-key column
// ("" for a scalar aggregate) and the value columns the oracle checks.
type query struct {
	name   string
	sql    string
	key    string
	values []string
}

var (
	q1 = query{"Q1", sqlQ1, "l_rfls", []string{"sum_qty", "sum_rev", "cnt"}}
	q3 = query{"Q3", sqlQ3, "l_orderkey", []string{"revenue"}}
	q4 = query{"Q4", sqlQ4, "o_orderpriority", []string{"order_count"}}
	q6 = query{"Q6", sqlQ6, "", []string{"revenue"}}
)

// workload is one named set of inputs. An op is one pass over queries: a
// single Engine.Query call, or a round of four in the mix.
type workload struct {
	name string
	why  string

	sf, ratio float64
	hw        adamant.Hardware
	sdk       adamant.SDK
	engine    []adamant.EngineOption
	// observed arms telemetry and the profiler on the engine.
	observed bool
	model    adamant.Model
	chunk    int

	queries []query
	// clients is the wanted closed-loop client count; the run uses
	// min(clients, nproc) and records it.
	clients int
	// warmup is the count-based warm-up in ops per client.
	warmup int
}

var workloads = []workload{
	{
		name: "q6_scan_cold",
		why:  "scan-bound, hash-free Q6, plain chunked: unfused filter kernels, fresh staging allocation and a full H2D copy on every op",
		sf:   100, ratio: 1.0 / 512, hw: adamant.RTX2080Ti, sdk: adamant.CUDA,
		model: adamant.Chunked, chunk: 65536,
		queries: []query{q6}, clients: 1, warmup: 50,
	},
	{
		name: "q3_join_cold",
		why:  "Q3 semi-joins and GROUP BY, 4-phase pipelined: hash init/build/probe/agg/extract dominate over pinned double buffers, filters are minor",
		sf:   100, ratio: 1.0 / 512, hw: adamant.RTX2080Ti, sdk: adamant.CUDA,
		model: adamant.FourPhasePipelined, chunk: 65536,
		queries: []query{q3}, clients: 1, warmup: 50,
	},
	{
		name: "tiny_chunks_observed",
		why:  "Q6 on OpenCL in 1024-row chunks with telemetry and profiler on: fixed per-call cost of seam, decorators and observability, little row work",
		sf:   1, ratio: 1.0 / 64, hw: adamant.RTX2080Ti, sdk: adamant.OpenCL,
		observed: true,
		model:    adamant.FourPhasePipelined, chunk: 1024,
		queries: []query{q6}, clients: 1, warmup: 100,
	},
	{
		name: "mix_warm_fused_2c",
		why:  "Q1/Q3/Q4/Q6 rounds from two clients on one fused engine with a warm buffer pool: pooled leases, fused kernels, shared timelines and admission",
		sf:   100, ratio: 1.0 / 512, hw: adamant.RTX2080Ti, sdk: adamant.CUDA,
		engine: []adamant.EngineOption{
			adamant.WithFusion(),
			adamant.WithBufferPool(512<<20, adamant.CacheCostAware),
		},
		model: adamant.FourPhasePipelined, chunk: 65536,
		queries: []query{q1, q3, q4, q6}, clients: 2, warmup: 4,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// numClients is the load the run actually generates: never more client
// goroutines than processors.
func (w *workload) numClients() int {
	return min(w.clients, runtime.NumCPU())
}

// order returns client c's query order. In the mix the second client starts
// its round two queries in (at Q4), so the clients do not run the same
// query in lockstep.
func (w *workload) order(c int) []query {
	n := len(w.queries)
	out := make([]query, n)
	for i := range out {
		out[i] = w.queries[(i+c*n/2)%n]
	}
	return out
}

// plugFunc registers the workload's device on an engine. The end-to-end
// path plugs the stock simulated driver; the traced path plugs the timing
// device around the same driver.
type plugFunc func(*adamant.Engine, *workload) (adamant.DeviceID, error)

func plugStock(e *adamant.Engine, w *workload) (adamant.DeviceID, error) {
	return e.Plug(w.hw, w.sdk)
}

// dataset is the generated input shared by every engine of a run: the
// facade catalog, the oracle's answers and the lineitem row count.
type dataset struct {
	cat  *adamant.Catalog
	want map[string]checksum
	rows int
}

// target is everything a client needs to issue the workload's ops.
type target struct {
	*dataset
	w   *workload
	eng *adamant.Engine
	dev adamant.DeviceID
	// warned caps what a run of failing ops prints.
	warned atomic.Int32
}

// generate builds the workload's inputs from the seed: the facade catalog
// over the TPC-H columns and the oracle's answers. It also returns the
// generator's own tables, which the traced run plans against directly; the
// end-to-end run lets them go. quick shrinks the data sixteen-fold for the
// smoke test.
func (w *workload) generate(seed uint64, quick bool) (*dataset, *tpch.Dataset, error) {
	ratio := w.ratio
	if quick {
		ratio /= 16
	}
	ds, err := tpch.Generate(tpch.Config{SF: w.sf, Ratio: ratio, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	var tables []*adamant.Table
	for _, st := range sliceOf(ds.Lineitem, ds.Orders, ds.Customer) {
		t := adamant.NewTable(st.Name, st.Rows())
		for _, col := range st.Columns() {
			// The generator's columns carry spare capacity, and how much
			// depends on the seed. The engine gets exact copies, so the
			// data weighs the same in heap_live_mb whatever the seed.
			if err := t.AddInt32(col.Name, slices.Clone(col.Data.I32())); err != nil {
				return nil, nil, err
			}
		}
		tables = append(tables, t)
	}
	want := make(map[string]checksum, len(w.queries))
	for _, q := range w.queries {
		want[q.name] = oracle(q.name, ds)
	}
	return &dataset{cat: adamant.NewCatalog(tables...), want: want, rows: ds.Lineitem.Rows()}, ds, nil
}

// sliceOf lets generate range over the dataset's tables without naming
// their internal type.
func sliceOf[T any](xs ...T) []T { return xs }

// newTarget builds one engine for the workload over the dataset. observed
// selects telemetry and profiler, so the observability-cost probe can flip
// it against the workload's own setting.
func (w *workload) newTarget(ds *dataset, observed bool, plug plugFunc) (*target, error) {
	eng := adamant.NewEngine(w.engine...)
	if observed {
		eng = eng.WithTelemetry(adamant.TelemetryConfig{}).WithProfile(adamant.ProfileConfig{})
	}
	dev, err := plug(eng, w)
	if err != nil {
		return nil, err
	}
	return &target{dataset: ds, w: w, eng: eng, dev: dev}, nil
}

func (t *target) warnf(format string, args ...any) {
	if t.warned.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perf: %s: %s\n", t.w.name, fmt.Sprintf(format, args...))
	}
}

func (t *target) options() adamant.QueryOptions {
	return adamant.QueryOptions{ExecOptions: adamant.ExecOptions{Model: t.w.model, ChunkElems: t.w.chunk}}
}

// opResult is one op as the client saw it.
type opResult struct {
	start   time.Time
	wall    time.Duration
	virtual time.Duration
	exec    execCounts
	failed  bool
}

// do issues one op: every query of the client's order, timed together. The
// results are checked against the oracle after the clock has stopped.
func (t *target) do(order []query, results []*adamant.Result) opResult {
	opts := t.options()
	var firstErr error
	start := time.Now()
	for i, q := range order {
		res, err := t.eng.Query(t.cat, t.dev, q.sql, opts)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		results[i] = res
	}
	op := opResult{start: start, wall: time.Since(start), failed: firstErr != nil}
	if firstErr != nil {
		t.warnf("%v", firstErr)
		return op
	}
	for i, q := range order {
		st := results[i].Stats()
		op.virtual += st.Elapsed
		op.exec.addStats(st)
		if got := resultChecksum(q, results[i]); got != t.want[q.name] {
			t.warnf("%s returned %+v, oracle says %+v", q.name, got, t.want[q.name])
			op.failed = true
		}
	}
	return op
}
