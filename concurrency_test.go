// Concurrency tests for the session runtime: N goroutines sharing one
// Engine across every execution model, mid-query cancellation with
// buffer-accounting checks, and the admission-control paths. All of these
// are meaningful under -race (the documented tier-1 gate).
package adamant_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	adamant "github.com/adamant-db/adamant"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/storage"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/vclock"
)

// stressRows is enough rows for dozens of chunks at stressChunk, so every
// model exercises its chunk loop (and its cancellation points).
const (
	stressRows  = 32768
	stressChunk = 1024
)

func stressData() (prices, discounts []int32) {
	prices = make([]int32, stressRows)
	discounts = make([]int32, stressRows)
	for i := range prices {
		prices[i] = int32(i%1000 + 1)
		discounts[i] = int32(i % 11)
	}
	return prices, discounts
}

// stressPlan builds the quick-start revenue query: filter on discount,
// materialize both sides, multiply, sum.
func stressPlan(eng *adamant.Engine, dev adamant.DeviceID, prices, discounts []int32) *adamant.Plan {
	plan := eng.NewPlan().On(dev)
	price := plan.ScanInt32("price", prices)
	disc := plan.ScanInt32("discount", discounts)
	keep := plan.FilterBetween(disc, 5, 7)
	rev := plan.Mul(plan.Materialize(price, keep), plan.Materialize(disc, keep))
	plan.Return("revenue", plan.SumInt64(rev))
	return plan
}

var stressModels = map[string]adamant.Model{
	"oaat":         adamant.OperatorAtATime,
	"chunked":      adamant.Chunked,
	"pipelined":    adamant.Pipelined,
	"4p-chunked":   adamant.FourPhaseChunked,
	"4p-pipelined": adamant.FourPhasePipelined,
}

// TestConcurrentStress runs goroutines across all five execution models
// over one shared Engine and asserts every concurrent result matches the
// model's serial baseline.
func TestConcurrentStress(t *testing.T) {
	eng := adamant.NewEngine()
	gpu, err := eng.Plug(adamant.RTX2080Ti, adamant.CUDA)
	if err != nil {
		t.Fatal(err)
	}
	prices, discounts := stressData()

	// Serial baselines, one per model.
	want := map[string]int64{}
	for name, model := range stressModels {
		res, err := eng.Execute(stressPlan(eng, gpu, prices, discounts),
			adamant.ExecOptions{Model: model, ChunkElems: stressChunk})
		if err != nil {
			t.Fatalf("serial %s: %v", name, err)
		}
		want[name] = res.Int64("revenue")[0]
	}
	for name, w := range want {
		if w != want["oaat"] {
			t.Fatalf("serial baselines disagree: %s=%d oaat=%d", name, w, want["oaat"])
		}
	}

	// Two goroutines per model, a few executions each, all on the shared
	// engine at once.
	const perModel, iters = 2, 3
	var wg sync.WaitGroup
	errs := make(chan error, len(stressModels)*perModel)
	for name, model := range stressModels {
		for g := 0; g < perModel; g++ {
			wg.Add(1)
			go func(name string, model adamant.Model) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					res, err := eng.Execute(stressPlan(eng, gpu, prices, discounts),
						adamant.ExecOptions{Model: model, ChunkElems: stressChunk})
					if err != nil {
						errs <- fmt.Errorf("%s: %w", name, err)
						return
					}
					if got := res.Int64("revenue")[0]; got != want[name] {
						errs <- fmt.Errorf("%s: revenue = %d, want %d", name, got, want[name])
						return
					}
				}
			}(name, model)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// cancelAfter is a context whose Err flips to Canceled after n checks. The
// executor polls ctx.Err() at every chunk boundary, so this cancels a
// query deterministically mid-run — no sleeps, no racing a timer.
type cancelAfter struct {
	context.Context
	checks atomic.Int64
	after  int64
}

func (c *cancelAfter) Err() error {
	if c.checks.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestExecuteContextCancelReleasesBuffers cancels a multi-chunk query
// mid-run and asserts the engine's memory accounting — device bytes,
// pinned bytes, live buffers — returns to the pre-query baseline.
func TestExecuteContextCancelReleasesBuffers(t *testing.T) {
	eng := adamant.NewEngine()
	gpu, err := eng.Plug(adamant.RTX2080Ti, adamant.CUDA)
	if err != nil {
		t.Fatal(err)
	}
	prices, discounts := stressData()
	opts := adamant.ExecOptions{Model: adamant.FourPhasePipelined, ChunkElems: stressChunk}

	// Warm up once so the baseline reflects steady state.
	if _, err := eng.Execute(stressPlan(eng, gpu, prices, discounts), opts); err != nil {
		t.Fatal(err)
	}
	baseline := make([]devmem.Stats, 0)
	for _, d := range eng.Runtime().Devices() {
		baseline = append(baseline, d.MemStats())
	}

	ctx := &cancelAfter{Context: context.Background(), after: 3}
	_, err = eng.ExecuteContext(ctx, stressPlan(eng, gpu, prices, discounts), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execute: err = %v, want context.Canceled", err)
	}
	if ctx.checks.Load() <= ctx.after {
		t.Fatalf("context checked %d times; cancellation never observed mid-run", ctx.checks.Load())
	}

	for i, d := range eng.Runtime().Devices() {
		s := d.MemStats()
		if s.Used != baseline[i].Used || s.PinnedUsed != baseline[i].PinnedUsed || s.LiveBuffers != baseline[i].LiveBuffers {
			t.Errorf("device %d leaked after cancel: used=%d (want %d) pinned=%d (want %d) live=%d (want %d)",
				i, s.Used, baseline[i].Used, s.PinnedUsed, baseline[i].PinnedUsed, s.LiveBuffers, baseline[i].LiveBuffers)
		}
	}

	// The engine stays usable after a cancelled session.
	res, err := eng.Execute(stressPlan(eng, gpu, prices, discounts), opts)
	if err != nil {
		t.Fatalf("execute after cancel: %v", err)
	}
	if res.Int64("revenue")[0] == 0 {
		t.Error("post-cancel query returned zero revenue")
	}
}

// TestAdmissionBudget rejects a query whose estimated working set exceeds
// the device budget, and admits it once the budget is raised.
func TestAdmissionBudget(t *testing.T) {
	eng := adamant.NewEngine()
	gpu, err := eng.Plug(adamant.RTX2080Ti, adamant.CUDA)
	if err != nil {
		t.Fatal(err)
	}
	prices, discounts := stressData()
	// Operator-at-a-time keeps whole columns resident: the working set is
	// far above 1 KiB.
	opts := adamant.ExecOptions{Model: adamant.OperatorAtATime}

	eng.SetDeviceBudget(gpu, 1024)
	_, err = eng.Execute(stressPlan(eng, gpu, prices, discounts), opts)
	if !errors.Is(err, adamant.ErrAdmission) {
		t.Fatalf("over-budget execute: err = %v, want ErrAdmission", err)
	}
	if rej := eng.AdmissionStats().Rejected; rej != 1 {
		t.Errorf("rejected = %d, want 1", rej)
	}

	eng.SetDeviceBudget(gpu, 1<<30)
	if _, err := eng.Execute(stressPlan(eng, gpu, prices, discounts), opts); err != nil {
		t.Fatalf("within-budget execute: %v", err)
	}
}

// gatedDevice wraps a simulated device so its first kernel launch blocks
// until the gate opens. The blocked query holds its admission grant the
// whole time, making queue build-up deterministic regardless of GOMAXPROCS.
type gatedDevice struct {
	device.Device
	first   sync.Once
	entered chan struct{}
	gate    chan struct{}
}

func (d *gatedDevice) Execute(req device.ExecRequest, ready vclock.Time) (vclock.Time, error) {
	d.first.Do(func() {
		close(d.entered)
		<-d.gate
	})
	return d.Device.Execute(req, ready)
}

// TestAdmissionQueueSerializes caps concurrency at one, parks a session
// mid-kernel while five more arrive, and checks that every one of them
// waits in the admission queue, then completes correctly once the slot
// frees up.
func TestAdmissionQueueSerializes(t *testing.T) {
	prices, discounts := stressData()
	opts := adamant.ExecOptions{Model: adamant.Chunked, ChunkElems: stressChunk}

	// Reference answer from a plain engine: same data, same kernels.
	ref := adamant.NewEngine()
	refGPU, err := ref.Plug(adamant.RTX2080Ti, adamant.CUDA)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Execute(stressPlan(ref, refGPU, prices, discounts), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Int64("revenue")[0]

	eng := adamant.NewEngine(adamant.WithMaxConcurrent(1))
	gd := &gatedDevice{
		Device:  simcuda.New(&simhw.RTX2080Ti, nil),
		entered: make(chan struct{}),
		gate:    make(chan struct{}),
	}
	gpu, err := eng.PlugDevice(gd)
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	runOne := func() {
		defer wg.Done()
		res, err := eng.Execute(stressPlan(eng, gpu, prices, discounts), opts)
		if err != nil {
			errs <- err
			return
		}
		if got := res.Int64("revenue")[0]; got != want {
			errs <- fmt.Errorf("revenue = %d, want %d", got, want)
		}
	}

	// First session blocks inside its first kernel, holding the only slot.
	wg.Add(1)
	go runOne()
	<-gd.entered

	// Five more arrive; with the slot held they must all queue.
	for i := 1; i < sessions; i++ {
		wg.Add(1)
		go runOne()
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.AdmissionStats().Queued < sessions-1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v", eng.AdmissionStats())
		}
		time.Sleep(time.Millisecond)
	}

	close(gd.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	s := eng.AdmissionStats()
	if s.Admitted != sessions {
		t.Errorf("admitted = %d, want %d", s.Admitted, sessions)
	}
	if s.Waited != sessions-1 {
		t.Errorf("waited = %d, want %d", s.Waited, sessions-1)
	}
	if s.Running != 0 || s.Queued != 0 {
		t.Errorf("scheduler not drained: running=%d queued=%d", s.Running, s.Queued)
	}
}

// TestQueryContextCancel checks that the SQL front-end honours
// cancellation through the same path as plan execution.
func TestQueryContextCancel(t *testing.T) {
	eng := adamant.NewEngine()
	gpu, err := eng.Plug(adamant.RTX2080Ti, adamant.CUDA)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int32, stressRows)
	for i := range vals {
		vals[i] = int32(i % 100)
	}
	table := adamant.NewTable("t", stressRows)
	if err := table.AddInt32("v", vals); err != nil {
		t.Fatal(err)
	}
	cat := adamant.NewCatalog(table)

	ctx := &cancelAfter{Context: context.Background(), after: 2}
	_, err = eng.QueryContext(ctx, cat, gpu, "SELECT SUM(v) FROM t WHERE v < 50",
		adamant.QueryOptions{ExecOptions: adamant.ExecOptions{Model: adamant.Chunked, ChunkElems: stressChunk}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: err = %v, want context.Canceled", err)
	}
}

// TestTwoClientsStatsAreTheirOwn runs TPC-H Q6 and Q3 from two goroutines
// on one engine and asserts each result's launch and byte counts equal the
// query's solo run: a query is billed for its own device work, not for
// whatever its neighbour ran on the shared devices meanwhile.
func TestTwoClientsStatsAreTheirOwn(t *testing.T) {
	ds, err := tpch.Generate(tpch.Config{SF: 1, Ratio: 1.0 / 4096, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var tables []*adamant.Table
	for _, st := range []*storage.Table{ds.Lineitem, ds.Orders, ds.Customer} {
		tbl := adamant.NewTable(st.Name, st.Rows())
		for _, col := range st.Columns() {
			if err := tbl.AddInt32(col.Name, col.Data.I32()); err != nil {
				t.Fatal(err)
			}
		}
		tables = append(tables, tbl)
	}
	cat := adamant.NewCatalog(tables...)
	queries := map[string]string{
		"Q6": `SELECT SUM(l_extendedprice * l_discount) AS revenue
		       FROM lineitem
		       WHERE l_shipdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'
		         AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24`,
		"Q3": `SELECT l_orderkey, SUM(l_extendedprice * (100 - l_discount)) AS revenue
		       FROM lineitem
		       WHERE l_shipdate > DATE '1995-03-15'
		         AND l_orderkey IN (
		           SELECT o_orderkey FROM orders
		           WHERE o_orderdate < DATE '1995-03-15'
		             AND o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment = 1))
		       GROUP BY l_orderkey`,
	}

	eng := adamant.NewEngine()
	gpu, err := eng.Plug(adamant.RTX2080Ti, adamant.CUDA)
	if err != nil {
		t.Fatal(err)
	}
	type counts struct{ launches, h2d, d2h int64 }
	run := func(name string) (counts, error) {
		res, err := eng.Query(cat, gpu, queries[name], adamant.QueryOptions{
			ExecOptions: adamant.ExecOptions{Model: adamant.FourPhasePipelined, ChunkElems: 512},
		})
		if err != nil {
			return counts{}, fmt.Errorf("%s: %w", name, err)
		}
		s := res.Stats()
		return counts{s.Launches, s.H2DBytes, s.D2HBytes}, nil
	}
	solo := map[string]counts{}
	for name := range queries {
		c, err := run(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.launches == 0 || c.h2d == 0 || c.d2h == 0 {
			t.Fatalf("solo %s counted nothing: %+v", name, c)
		}
		solo[name] = c
	}

	const rounds, perRound = 4, 6
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for name := range queries {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				<-start
				for i := 0; i < perRound; i++ {
					got, err := run(name)
					if err != nil {
						t.Error(err)
						return
					}
					if got != solo[name] {
						t.Errorf("round %d: concurrent %s counted %+v, solo run %+v", r, name, got, solo[name])
						return
					}
				}
			}(name)
		}
		close(start)
		wg.Wait()
	}
}
