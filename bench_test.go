// Benchmarks regenerating the paper's evaluation (§V): one benchmark per
// table/figure plus ablations of the design choices DESIGN.md calls out.
//
// Each benchmark drives the real ADAMANT stack. Wall time measures the
// simulator's own cost; the paper's quantity — simulated device time — is
// reported as the custom metric "vms/op" (virtual milliseconds per
// operation).
//
// Run everything with:
//
//	go test -bench=. -benchmem .
package adamant_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	adamant "github.com/adamant-db/adamant"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/driver/simomp"
	"github.com/adamant-db/adamant/internal/driver/simopencl"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/heavysim"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/kernels"
	"github.com/adamant-db/adamant/internal/session"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/trace"
	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// benchRatio scales the paper's scale factors down for bench runs; the
// chunk size scales along with it to keep chunk counts faithful.
const benchRatio = 1.0 / 512

func benchChunk() int {
	c := int(float64(int64(1)<<25) * benchRatio)
	return (c + 63) &^ 63
}

var benchDataset = map[float64]*tpch.Dataset{}

func dataset(b *testing.B, sf float64) *tpch.Dataset {
	b.Helper()
	if ds, ok := benchDataset[sf]; ok {
		return ds
	}
	ds, err := tpch.Generate(tpch.Config{SF: sf, Ratio: benchRatio, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	benchDataset[sf] = ds
	return ds
}

func reportVirtual(b *testing.B, total vclock.Duration) {
	b.Helper()
	b.ReportMetric(total.Seconds()*1e3/float64(b.N), "vms/op")
}

// BenchmarkFig3Transfer regenerates Figure 3's bandwidth points: one 64 MiB
// H2D transfer per iteration, per SDK and memory mode.
func BenchmarkFig3Transfer(b *testing.B) {
	const bytes = 64 << 20
	for _, cfg := range []struct {
		name   string
		build  func() device.Device
		pinned bool
	}{
		{"CUDA/pageable", func() device.Device { return simcuda.New(&simhw.RTX2080Ti, nil) }, false},
		{"CUDA/pinned", func() device.Device { return simcuda.New(&simhw.RTX2080Ti, nil) }, true},
		{"OpenCL/pageable", func() device.Device { return simopencl.NewGPU(&simhw.RTX2080Ti, nil) }, false},
		{"OpenCL/pinned", func() device.Device { return simopencl.NewGPU(&simhw.RTX2080Ti, nil) }, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			d := cfg.build()
			if err := d.Initialize(); err != nil {
				b.Fatal(err)
			}
			host := vec.New(vec.Int32, bytes/4)
			var buf devmem.BufferID
			var err error
			if cfg.pinned {
				buf, _, err = d.AddPinnedMemory(vec.Int32, bytes/4, 0)
			} else {
				buf, _, err = d.PrepareMemory(vec.Int32, bytes/4, 0)
			}
			if err != nil {
				b.Fatal(err)
			}
			start := d.CopyEngine().Avail()
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.PlaceDataInto(buf, 0, host, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, d.CopyEngine().Avail().Sub(start))
		})
	}
}

// BenchmarkFig5MapReduce regenerates Figure 5: the MAP and AGG_BLOCK
// primitives over resident data, per driver.
func BenchmarkFig5MapReduce(b *testing.B) {
	const n = 1 << 22
	drivers := []struct {
		name  string
		build func() device.Device
	}{
		{"cuda", func() device.Device { return simcuda.New(&simhw.RTX2080Ti, nil) }},
		{"opencl-gpu", func() device.Device { return simopencl.NewGPU(&simhw.RTX2080Ti, nil) }},
		{"opencl-cpu", func() device.Device { return simopencl.NewCPU(&simhw.CoreI78700, nil) }},
		{"openmp", func() device.Device { return simomp.New(&simhw.CoreI78700, nil) }},
	}
	for _, drv := range drivers {
		for _, kernel := range []string{"map_mul_i32_i64", "agg_block_i32"} {
			b.Run(drv.name+"/"+kernel, func(b *testing.B) {
				d := drv.build()
				if err := d.Initialize(); err != nil {
					b.Fatal(err)
				}
				in := vec.New(vec.Int32, n)
				a, _, err := d.PlaceData(in, 0)
				if err != nil {
					b.Fatal(err)
				}
				var args []devmem.BufferID
				var params []int64
				if kernel == "map_mul_i32_i64" {
					b2, _, _ := d.PlaceData(in, 0)
					out, _, _ := d.PrepareMemory(vec.Int64, n, 0)
					args = []devmem.BufferID{a, b2, out}
				} else {
					out, _, _ := d.PrepareMemory(vec.Int64, 1, 0)
					args = []devmem.BufferID{a, out}
					params = []int64{int64(kernels.AggSum)}
				}
				start := d.ComputeEngine().Avail()
				b.SetBytes(4 * n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := d.Execute(device.ExecRequest{Kernel: kernel, Args: args, Params: params}, 0); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportVirtual(b, d.ComputeEngine().Avail().Sub(start))
			})
		}
	}
}

// BenchmarkFig7Footprint regenerates Figure 7 (right): Q6 under
// operator-at-a-time with the footprint trace enabled.
func BenchmarkFig7Footprint(b *testing.B) {
	ds := dataset(b, 10)
	rt := hub.NewRuntime()
	dev, err := rt.Register(simcuda.New(&simhw.RTX2080Ti, nil))
	if err != nil {
		b.Fatal(err)
	}
	var virtual vclock.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := tpch.BuildQ6(ds, dev)
		if err != nil {
			b.Fatal(err)
		}
		res, err := exec.Run(rt, g, exec.Options{Model: exec.OperatorAtATime, Trace: true})
		if err != nil {
			b.Fatal(err)
		}
		virtual += res.Stats.Elapsed
	}
	b.StopTimer()
	reportVirtual(b, virtual)
}

// BenchmarkFig9Primitives regenerates Figure 9's primitive profiles on the
// CUDA and OpenCL GPU drivers.
func BenchmarkFig9Primitives(b *testing.B) {
	const n = 1 << 20
	drivers := []struct {
		name  string
		build func() device.Device
	}{
		{"cuda", func() device.Device { return simcuda.New(&simhw.RTX2080Ti, nil) }},
		{"opencl", func() device.Device { return simopencl.NewGPU(&simhw.RTX2080Ti, nil) }},
	}
	for _, drv := range drivers {
		b.Run(drv.name, func(b *testing.B) {
			d := drv.build()
			if err := d.Initialize(); err != nil {
				b.Fatal(err)
			}
			keysHost := vec.New(vec.Int32, n)
			for i := 0; i < n; i++ {
				keysHost.I32()[i] = int32(i)
			}
			keys, _, _ := d.PlaceData(keysHost, 0)
			vals, _, _ := d.PlaceData(vec.New(vec.Int64, n), 0)
			bm, _, _ := d.PrepareMemory(vec.Bits, n, 0)
			mat, _, _ := d.PrepareMemory(vec.Int32, n, 0)
			count, _, _ := d.PrepareMemory(vec.Int64, 1, 0)
			table, _, _ := d.PrepareMemory(vec.Int64, kernels.HashTableLen(n), 0)

			steps := []struct {
				name   string
				req    device.ExecRequest
				reinit bool
			}{
				{"filter_bitmap", device.ExecRequest{Kernel: "filter_bitmap_i32", Args: []devmem.BufferID{keys, bm}, Params: []int64{int64(kernels.CmpLt), n / 2, 0}}, false},
				{"materialize", device.ExecRequest{Kernel: "materialize_bitmap_i32", Args: []devmem.BufferID{keys, bm, mat, count}}, false},
				{"hash_build", device.ExecRequest{Kernel: "hash_build_pk_i32", Args: []devmem.BufferID{keys, table}, Params: []int64{0}}, true},
				{"hash_probe", device.ExecRequest{Kernel: "hash_probe_exists_i32", Args: []devmem.BufferID{keys, table, bm}}, false},
				{"hash_agg", device.ExecRequest{Kernel: "hash_agg_i32_i64", Args: []devmem.BufferID{keys, vals, table}, Params: []int64{int64(kernels.AggSum), 1 << 16}}, true},
			}
			for _, step := range steps {
				b.Run(step.name, func(b *testing.B) {
					start := d.ComputeEngine().Avail()
					b.SetBytes(4 * n)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if step.reinit {
							b.StopTimer()
							if _, err := d.Execute(device.ExecRequest{Kernel: "hash_table_init", Args: []devmem.BufferID{table}}, 0); err != nil {
								b.Fatal(err)
							}
							b.StartTimer()
						}
						if _, err := d.Execute(step.req, 0); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					reportVirtual(b, d.ComputeEngine().Avail().Sub(start))
				})
			}
		})
	}
}

// runQuery executes one TPC-H query on a fresh rig and returns its stats.
func runQuery(b *testing.B, ds *tpch.Dataset, q string, useOpenCL bool, model exec.Model) exec.Result {
	b.Helper()
	rt := hub.NewRuntime()
	var d device.Device
	if useOpenCL {
		d = simopencl.NewGPU(&simhw.RTX2080Ti, nil)
	} else {
		d = simcuda.New(&simhw.RTX2080Ti, nil)
	}
	dev, err := rt.Register(d)
	if err != nil {
		b.Fatal(err)
	}
	g, err := tpch.BuildQuery(q, ds, dev)
	if err != nil {
		b.Fatal(err)
	}
	res, err := exec.Run(rt, g, exec.Options{Model: model, ChunkElems: benchChunk()})
	if err != nil {
		b.Fatal(err)
	}
	return *res
}

// BenchmarkFig10Overhead regenerates Figure 10: chunked execution per query
// and driver, with the abstraction overhead reported as "vms-overhead/op".
func BenchmarkFig10Overhead(b *testing.B) {
	ds := dataset(b, 100)
	for _, q := range []string{"Q3", "Q4", "Q6"} {
		for _, drv := range []string{"cuda", "opencl"} {
			b.Run(q+"/"+drv, func(b *testing.B) {
				var virtual, overhead vclock.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := runQuery(b, ds, q, drv == "opencl", exec.Chunked)
					virtual += res.Stats.Elapsed
					overhead += res.Stats.Elapsed - res.Stats.KernelTime - res.Stats.TransferTime
				}
				b.StopTimer()
				reportVirtual(b, virtual)
				b.ReportMetric(overhead.Seconds()*1e3/float64(b.N), "vms-overhead/op")
			})
		}
	}
}

// BenchmarkFig11Models regenerates Figure 11 (left): Q3/Q4/Q6 at SF100
// under the three execution models, per GPU driver.
func BenchmarkFig11Models(b *testing.B) {
	ds := dataset(b, 100)
	models := map[string]exec.Model{
		"chunked":      exec.Chunked,
		"4p-chunked":   exec.FourPhaseChunked,
		"4p-pipelined": exec.FourPhasePipelined,
	}
	for _, q := range []string{"Q3", "Q4", "Q6"} {
		for _, drv := range []string{"opencl", "cuda"} {
			for name, model := range models {
				b.Run(fmt.Sprintf("%s/%s/%s", q, drv, name), func(b *testing.B) {
					var virtual vclock.Duration
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res := runQuery(b, ds, q, drv == "opencl", model)
						virtual += res.Stats.Elapsed
					}
					b.StopTimer()
					reportVirtual(b, virtual)
				})
			}
		}
	}
}

// BenchmarkFig11HeavyDB regenerates Figure 11 (right): the baseline's hot
// runs next to ADAMANT's 4-phase execution.
func BenchmarkFig11HeavyDB(b *testing.B) {
	ds := dataset(b, 100)
	b.Run("heavydb-hot/Q6", func(b *testing.B) {
		db := heavysim.New(heavysim.Config{GPU: &simhw.RTX2080Ti})
		var virtual vclock.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Run("Q6", ds)
			if err != nil {
				b.Fatal(err)
			}
			virtual += res.Elapsed
		}
		b.StopTimer()
		reportVirtual(b, virtual)
	})
	b.Run("adamant-4p/Q6", func(b *testing.B) {
		var virtual vclock.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := runQuery(b, ds, "Q6", false, exec.FourPhasePipelined)
			virtual += res.Stats.Elapsed
		}
		b.StopTimer()
		reportVirtual(b, virtual)
	})
}

// BenchmarkAblationChunkSize sweeps the chunk size around the paper's 2^25
// optimum (scaled), showing the transfer-granularity trade-off.
func BenchmarkAblationChunkSize(b *testing.B) {
	ds := dataset(b, 100)
	base := benchChunk()
	for _, chunk := range []int{base / 16, base / 4, base, base * 4, base * 16} {
		if chunk < 64 {
			continue
		}
		b.Run(fmt.Sprintf("chunk-%d", chunk), func(b *testing.B) {
			rt := hub.NewRuntime()
			dev, err := rt.Register(simcuda.New(&simhw.RTX2080Ti, nil))
			if err != nil {
				b.Fatal(err)
			}
			var virtual vclock.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := tpch.BuildQ6(ds, dev)
				if err != nil {
					b.Fatal(err)
				}
				res, err := exec.Run(rt, g, exec.Options{Model: exec.FourPhasePipelined, ChunkElems: chunk})
				if err != nil {
					b.Fatal(err)
				}
				virtual += res.Stats.Elapsed
			}
			b.StopTimer()
			reportVirtual(b, virtual)
		})
	}
}

// BenchmarkAblationPinned isolates pinned staging: pageable overlapped
// (Pipelined) vs pinned overlapped (FourPhasePipelined).
func BenchmarkAblationPinned(b *testing.B) {
	ds := dataset(b, 100)
	for name, model := range map[string]exec.Model{
		"pageable": exec.Pipelined,
		"pinned":   exec.FourPhasePipelined,
	} {
		b.Run(name, func(b *testing.B) {
			var virtual vclock.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := runQuery(b, ds, "Q6", false, model)
				virtual += res.Stats.Elapsed
			}
			b.StopTimer()
			reportVirtual(b, virtual)
		})
	}
}

// BenchmarkAblationDoubleBuffer isolates copy/compute overlap: 4-phase
// without (FourPhaseChunked) vs with (FourPhasePipelined) double buffering.
func BenchmarkAblationDoubleBuffer(b *testing.B) {
	ds := dataset(b, 100)
	for name, model := range map[string]exec.Model{
		"serial":  exec.FourPhaseChunked,
		"overlap": exec.FourPhasePipelined,
	} {
		b.Run(name, func(b *testing.B) {
			var virtual vclock.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := runQuery(b, ds, "Q6", false, model)
				virtual += res.Stats.Elapsed
			}
			b.StopTimer()
			reportVirtual(b, virtual)
		})
	}
}

// BenchmarkAblationFilterRepresentation compares the two filter result
// representations of §III-B3: bitmap+materialize vs position list+gather.
func BenchmarkAblationFilterRepresentation(b *testing.B) {
	const n = 1 << 20
	values := make([]int32, n)
	for i := range values {
		values[i] = int32(i % 100)
	}
	eng := adamant.NewEngine()
	gpu, err := eng.Plug(adamant.RTX2080Ti, adamant.CUDA)
	if err != nil {
		b.Fatal(err)
	}

	build := func(positions bool) *adamant.Plan {
		plan := eng.NewPlan().On(gpu)
		col := plan.ScanInt32("v", values)
		var kept adamant.Port
		if positions {
			pos := plan.FilterPositions(col, adamant.Lt, 30, 0.4)
			kept = plan.Gather(col, pos)
		} else {
			bm := plan.Filter(col, adamant.Lt, 30)
			kept = plan.Materialize(col, bm)
		}
		plan.Return("sum", plan.SumInt64(plan.CastInt64(kept)))
		return plan
	}

	for name, positions := range map[string]bool{"bitmap": false, "positions": true} {
		b.Run(name, func(b *testing.B) {
			var virtual vclock.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Execute(build(positions), adamant.ExecOptions{Model: adamant.OperatorAtATime})
				if err != nil {
					b.Fatal(err)
				}
				virtual += vclock.DurationOf(res.Stats().Elapsed)
			}
			b.StopTimer()
			reportVirtual(b, virtual)
		})
	}
}

// BenchmarkAblationTransform compares the transform_memory path (re-tag in
// device) against bouncing data through the host to change SDK formats.
func BenchmarkAblationTransform(b *testing.B) {
	const n = 1 << 22
	d := simcuda.New(&simhw.RTX2080Ti, nil)
	if err := d.Initialize(); err != nil {
		b.Fatal(err)
	}
	buf, _, err := d.PlaceData(vec.New(vec.Int32, n), 0)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("transform-in-device", func(b *testing.B) {
		start := d.CopyEngine().Avail()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			target := devmem.FormatThrust
			if i%2 == 1 {
				target = devmem.FormatCUDA
			}
			if _, err := d.TransformMemory(buf, target, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportVirtual(b, d.CopyEngine().Avail().Sub(start))
	})

	b.Run("bounce-through-host", func(b *testing.B) {
		host := vec.New(vec.Int32, n)
		start := d.CopyEngine().Avail()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.RetrieveData(buf, 0, n, host, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := d.PlaceDataInto(buf, 0, host, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportVirtual(b, d.CopyEngine().Avail().Sub(start))
	})
}

// BenchmarkConcurrentThroughput sweeps concurrent Q6 sessions through the
// session scheduler over one shared device, reporting end-to-end
// queries/sec and how many sessions had to wait for admission. The
// scheduler itself stays fixed (four in-flight sessions, full-card
// budget), so the higher offered loads show the admission queue working.
func BenchmarkConcurrentThroughput(b *testing.B) {
	ds := dataset(b, 10)
	for _, conc := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("sessions-%d", conc), func(b *testing.B) {
			rt := hub.NewRuntime()
			dev, err := rt.Register(simcuda.New(&simhw.RTX2080Ti, nil))
			if err != nil {
				b.Fatal(err)
			}
			d, err := rt.Device(dev)
			if err != nil {
				b.Fatal(err)
			}
			sched := session.NewScheduler(session.Config{MaxConcurrent: 4})
			sched.SetBudget(dev, d.Info().MemoryBytes)
			opts := exec.Options{Model: exec.FourPhasePipelined, ChunkElems: benchChunk()}
			ctx := context.Background()

			runOne := func() error {
				g, err := tpch.BuildQuery("Q6", ds, dev)
				if err != nil {
					return err
				}
				demand, err := exec.EstimateDemand(g, opts)
				if err != nil {
					return err
				}
				grant, err := sched.Admit(ctx, session.Request{Demand: demand})
				if err != nil {
					return err
				}
				defer grant.Release()
				_, err = exec.RunContext(ctx, rt, g, opts)
				return err
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make(chan error, conc)
				for s := 0; s < conc; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := runOne(); err != nil {
							errs <- err
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*conc)/secs, "queries/s")
			}
			b.ReportMetric(float64(sched.Stats().Waited)/float64(b.N), "waits/op")
		})
	}
}

// TestTracingDisabledAllocs guards the overhead budget of DESIGN.md §9:
// with no recorder attached the executor's tracing seams reduce to nil
// checks, and every recorder method is a nil-receiver no-op. The guard
// drives the full nil-recorder method surface and demands zero allocations
// per operation — a full query run allocates for data regardless, so the
// seams themselves are what AllocsPerRun can pin down.
func TestTracingDisabledAllocs(t *testing.T) {
	var rec *trace.Recorder
	if n := testing.AllocsPerRun(1000, func() {
		id := rec.Add(trace.Span{Kind: trace.KindKernel, Label: "noop", Start: 1, End: 2})
		rec.SetRows(id, 64)
		if rec.Enabled() || rec.Len() != 0 || rec.Spans() != nil {
			t.Fatal("nil recorder must observe nothing")
		}
	}); n != 0 {
		t.Fatalf("disabled recorder: %.1f allocs/op on the hot path, want 0", n)
	}
}

// BenchmarkTraceOverhead measures the tracing layer's cost on chunked Q6:
// "off" is the production default (no recorder, guarded alloc-free by
// TestTracingDisabledAllocs), "on" attaches a fresh recorder per query.
// Run with -benchmem and compare allocs/op between the two cases to see
// the full recording overhead; spans/op reports the trace volume bought.
func BenchmarkTraceOverhead(b *testing.B) {
	ds := dataset(b, 10)
	run := func(b *testing.B, traced bool) {
		rt := hub.NewRuntime()
		dev, err := rt.Register(simcuda.New(&simhw.RTX2080Ti, nil))
		if err != nil {
			b.Fatal(err)
		}
		var virtual vclock.Duration
		var spans int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := tpch.BuildQ6(ds, dev)
			if err != nil {
				b.Fatal(err)
			}
			var rec *trace.Recorder
			if traced {
				rec = trace.NewRecorder()
			}
			res, err := exec.Run(rt, g, exec.Options{
				Model: exec.Chunked, ChunkElems: benchChunk(), Recorder: rec,
			})
			if err != nil {
				b.Fatal(err)
			}
			virtual += res.Stats.Elapsed
			spans += rec.Len()
		}
		b.StopTimer()
		reportVirtual(b, virtual)
		if traced {
			b.ReportMetric(float64(spans)/float64(b.N), "spans/op")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationPrefetchDepth sweeps the rotating staging-buffer count
// of the 4-phase pipelined model beyond Figure 8's double buffering.
func BenchmarkAblationPrefetchDepth(b *testing.B) {
	ds := dataset(b, 100)
	for _, depth := range []int{2, 3, 4, 8} {
		b.Run(fmt.Sprintf("buffers-%d", depth), func(b *testing.B) {
			rt := hub.NewRuntime()
			dev, err := rt.Register(simcuda.New(&simhw.RTX2080Ti, nil))
			if err != nil {
				b.Fatal(err)
			}
			var virtual vclock.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := tpch.BuildQ6(ds, dev)
				if err != nil {
					b.Fatal(err)
				}
				res, err := exec.Run(rt, g, exec.Options{
					Model: exec.FourPhasePipelined, ChunkElems: benchChunk(), StagingBuffers: depth,
				})
				if err != nil {
					b.Fatal(err)
				}
				virtual += res.Stats.Elapsed
			}
			b.StopTimer()
			reportVirtual(b, virtual)
		})
	}
}
