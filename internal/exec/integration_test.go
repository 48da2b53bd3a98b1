package exec_test

import (
	"fmt"
	"sort"
	"testing"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/driver/simomp"
	"github.com/adamant-db/adamant/internal/driver/simopencl"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/kernels"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/task"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/vec"
)

// testRig registers the paper's four driver configurations on one runtime.
type testRig struct {
	rt      *hub.Runtime
	devices map[string]device.ID
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	rt := hub.NewRuntime()
	rig := &testRig{rt: rt, devices: make(map[string]device.ID)}
	add := func(name string, d device.Device) {
		id, err := rt.Register(d)
		if err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
		rig.devices[name] = id
	}
	add("cuda", simcuda.New(&simhw.RTX2080Ti, nil))
	add("opencl-gpu", simopencl.NewGPU(&simhw.RTX2080Ti, nil))
	add("opencl-cpu", simopencl.NewCPU(&simhw.CoreI78700, nil))
	add("openmp", simomp.New(&simhw.CoreI78700, nil))
	return rig
}

func testDataset(t *testing.T) *tpch.Dataset {
	t.Helper()
	ds, err := tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return ds
}

var allModels = []exec.Model{
	exec.OperatorAtATime,
	exec.Chunked,
	exec.Pipelined,
	exec.FourPhaseChunked,
	exec.FourPhasePipelined,
}

// TestQ6AllDriversAllModels checks that every driver and every execution
// model produces the reference Q6 answer.
func TestQ6AllDriversAllModels(t *testing.T) {
	ds := testDataset(t)
	want := tpch.RefQ6(ds)
	rig := newRig(t)

	for name, dev := range rig.devices {
		for _, model := range allModels {
			t.Run(fmt.Sprintf("%s/%s", name, model), func(t *testing.T) {
				g, err := tpch.BuildQuery("Q6", ds, dev)
				if err != nil {
					t.Fatalf("plan: %v", err)
				}
				res, err := exec.Run(rig.rt, g, exec.Options{Model: model, ChunkElems: 8192})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				col, ok := res.Column("revenue")
				if !ok {
					t.Fatalf("missing revenue column")
				}
				if got := col.I64()[0]; got != want {
					t.Errorf("revenue = %d, want %d", got, want)
				}
				if res.Stats.Elapsed <= 0 {
					t.Errorf("non-positive elapsed time %v", res.Stats.Elapsed)
				}
			})
		}
	}
}

// TestQ3AllModels checks the multi-join query on the CUDA driver across
// models, comparing per-group revenues.
func TestQ3AllModels(t *testing.T) {
	ds := testDataset(t)
	want := tpch.RefQ3(ds)
	rig := newRig(t)

	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			g, err := tpch.BuildQuery("Q3", ds, rig.devices["cuda"])
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			res, err := exec.Run(rig.rt, g, exec.Options{Model: model, ChunkElems: 8192})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			keys, _ := res.Column("l_orderkey")
			revs, _ := res.Column("revenue")
			got := make(map[int64]int64, keys.Len())
			for i := 0; i < keys.Len(); i++ {
				got[keys.I64()[i]] = revs.I64()[i]
			}
			if len(got) != len(want) {
				t.Fatalf("got %d groups, want %d", len(got), len(want))
			}
			checked := 0
			for k, v := range want {
				if got[k] != v {
					t.Errorf("group %d revenue = %d, want %d", k, got[k], v)
					checked++
					if checked > 5 {
						t.FailNow()
					}
				}
			}
		})
	}
}

// TestQ4AllModels checks the EXISTS-subquery plan.
func TestQ4AllModels(t *testing.T) {
	ds := testDataset(t)
	want := tpch.RefQ4(ds)
	rig := newRig(t)

	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			g, err := tpch.BuildQuery("Q4", ds, rig.devices["opencl-gpu"])
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			res, err := exec.Run(rig.rt, g, exec.Options{Model: model, ChunkElems: 8192})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			prio, _ := res.Column("o_orderpriority")
			cnt, _ := res.Column("order_count")
			got := make(map[int64]int64)
			for i := 0; i < prio.Len(); i++ {
				got[prio.I64()[i]] = cnt.I64()[i]
			}
			if len(got) != len(want) {
				t.Fatalf("got %d priorities, want %d (got=%v want=%v)", len(got), len(want), got, want)
			}
			for k, v := range want {
				if got[k] != v {
					t.Errorf("priority %d count = %d, want %d", k, got[k], v)
				}
			}
		})
	}
}

// TestQ1AllModels checks the multi-aggregate group-by plan.
func TestQ1AllModels(t *testing.T) {
	ds := testDataset(t)
	want := tpch.RefQ1(ds)
	rig := newRig(t)

	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			g, err := tpch.BuildQuery("Q1", ds, rig.devices["openmp"])
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			res, err := exec.Run(rig.rt, g, exec.Options{Model: model, ChunkElems: 8192})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			// The extracts are key-sorted, so the three aggregates align
			// with the one key column.
			keys, _ := res.Column("l_rfls")
			qty, _ := res.Column("sum_qty")
			rev, _ := res.Column("sum_rev")
			cnt, _ := res.Column("cnt")

			gotQty := toMap(keys.I64(), qty.I64())
			gotRev := toMap(keys.I64(), rev.I64())
			gotCnt := toMap(keys.I64(), cnt.I64())
			if len(gotQty) != len(want) {
				t.Fatalf("got %d groups, want %d", len(gotQty), len(want))
			}
			for k, w := range want {
				if gotQty[k] != w.SumQty {
					t.Errorf("group %d sum_qty = %d, want %d", k, gotQty[k], w.SumQty)
				}
				if gotRev[k] != w.SumRev {
					t.Errorf("group %d sum_rev = %d, want %d", k, gotRev[k], w.SumRev)
				}
				if gotCnt[k] != w.Count {
					t.Errorf("group %d count = %d, want %d", k, gotCnt[k], w.Count)
				}
			}
		})
	}
}

func toMap(keys, vals []int64) map[int64]int64 {
	m := make(map[int64]int64, len(keys))
	for i := range keys {
		m[keys[i]] = vals[i]
	}
	return m
}

// TestModelTimingOrder checks the headline performance relationships on a
// transfer-bound query: 4-phase beats naive chunked on CUDA, and
// operator-at-a-time (everything resident) beats both once data fits.
func TestModelTimingOrder(t *testing.T) {
	ds := testDataset(t)
	rig := newRig(t)

	elapsed := make(map[exec.Model]float64)
	for _, model := range allModels {
		g, err := tpch.BuildQuery("Q6", ds, rig.devices["cuda"])
		if err != nil {
			t.Fatalf("plan: %v", err)
		}
		res, err := exec.Run(rig.rt, g, exec.Options{Model: model, ChunkElems: 4096})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		elapsed[model] = res.Stats.Elapsed.Seconds()
	}
	if elapsed[exec.FourPhaseChunked] >= elapsed[exec.Chunked] {
		t.Errorf("4-phase chunked (%.6fs) should beat naive chunked (%.6fs)",
			elapsed[exec.FourPhaseChunked], elapsed[exec.Chunked])
	}
	if elapsed[exec.FourPhasePipelined] > elapsed[exec.FourPhaseChunked]*1.05 {
		t.Errorf("4-phase pipelined (%.6fs) should not lose to 4-phase chunked (%.6fs)",
			elapsed[exec.FourPhasePipelined], elapsed[exec.FourPhaseChunked])
	}
	t.Logf("timings: %v", ordered(elapsed))
}

func ordered(m map[exec.Model]float64) string {
	models := make([]exec.Model, 0, len(m))
	for k := range m {
		models = append(models, k)
	}
	sort.Slice(models, func(i, j int) bool { return models[i] < models[j] })
	s := ""
	for _, k := range models {
		s += fmt.Sprintf("%s=%.6fs ", k, m[k])
	}
	return s
}

// TestCrossDevicePipelineOverlap runs two independent pipelines on two
// devices under the overlapped model: their virtual execution must overlap
// (total < sum of the single-device runs).
func TestCrossDevicePipelineOverlap(t *testing.T) {
	ds := testDataset(t)
	rig := newRig(t)

	build := func(devA, devB device.ID) (*exec.Result, error) {
		g, err := tpch.BuildQuery("Q6", ds, devA)
		if err != nil {
			t.Fatal(err)
		}
		// A second, independent Q6-shaped aggregation on the other device
		// inside the same graph: separate scans, separate pipeline.
		li := ds.Lineitem
		qty := g.AddScan("lineitem.l_quantity#2", li.MustColumn("l_quantity"), devB)
		aggT, err := task.NewAggBlock(kernels.AggSum, vec.Int32, "sum(qty)")
		if err != nil {
			t.Fatal(err)
		}
		agg := g.AddTask(aggT, devB, qty)
		g.MarkResult("qty_total", g.Out(agg, 0))
		return exec.Run(rig.rt, g, exec.Options{Model: exec.Pipelined, ChunkElems: 8192})
	}

	same, err := build(rig.devices["cuda"], rig.devices["cuda"])
	if err != nil {
		t.Fatal(err)
	}
	split, err := build(rig.devices["cuda"], rig.devices["openmp"])
	if err != nil {
		t.Fatal(err)
	}

	if !vecEqualResults(same, split) {
		t.Error("device split changed the results")
	}
	if split.Stats.Elapsed >= same.Stats.Elapsed {
		t.Errorf("splitting across devices (%v) should beat one device (%v) under overlap",
			split.Stats.Elapsed, same.Stats.Elapsed)
	}
}

func vecEqualResults(a, b *exec.Result) bool {
	if len(a.Columns) != len(b.Columns) {
		return false
	}
	for _, col := range a.Columns {
		other, ok := b.Column(col.Name)
		if !ok || !vec.Equal(col.Data, other) {
			return false
		}
	}
	return true
}

// TestMixedDeviceQ3 places Q3's build pipelines on the CPU and its
// lineitem pipeline on the GPU by re-annotating the plan; the router moves
// the hash tables between devices and the results stay exact.
func TestMixedDeviceQ3(t *testing.T) {
	ds := testDataset(t)
	want := tpch.RefQ3(ds)
	rig := newRig(t)

	g, err := tpch.BuildQuery("Q3", ds, rig.devices["openmp"])
	if err != nil {
		t.Fatal(err)
	}
	// Move the heavy lineitem pipeline (and the final extract) to the GPU.
	pipelines, err := g.BuildPipelines()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pipelines[2:] {
		for _, nid := range p.Nodes {
			g.Node(nid).Device = rig.devices["cuda"]
		}
		for _, sid := range p.Scans {
			g.Node(sid).Device = rig.devices["cuda"]
		}
	}

	res, err := exec.Run(rig.rt, g, exec.Options{Model: exec.FourPhasePipelined, ChunkElems: 8192})
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := res.Column("l_orderkey")
	revs, _ := res.Column("revenue")
	if keys.Len() != len(want) {
		t.Fatalf("groups = %d, want %d", keys.Len(), len(want))
	}
	for i := 0; i < keys.Len(); i++ {
		if want[keys.I64()[i]] != revs.I64()[i] {
			t.Fatalf("group %d revenue = %d, want %d", keys.I64()[i], revs.I64()[i], want[keys.I64()[i]])
		}
	}
}
