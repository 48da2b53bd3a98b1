package exec_test

import (
	"errors"
	"testing"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/driver/simomp"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/fault"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vclock"
)

// TestEstimateDemandUnknownModel: demand estimation and execution both
// reject a model outside the enum with the typed sentinel.
func TestEstimateDemandUnknownModel(t *testing.T) {
	_, dev := gpuRuntime(t)
	g := filterSumGraph(t, []int32{1, 2, 3}, []int32{4, 5, 6}, 10, dev)
	for _, bad := range []exec.Model{exec.Model(-1), exec.Model(99)} {
		if _, err := exec.EstimateDemand(g, exec.Options{Model: bad}); !errors.Is(err, exec.ErrUnknownModel) {
			t.Errorf("EstimateDemand(model %d) = %v, want ErrUnknownModel", int(bad), err)
		}
	}
	rt, dev := gpuRuntime(t)
	g = filterSumGraph(t, []int32{1, 2, 3}, []int32{4, 5, 6}, 10, dev)
	if _, err := exec.Run(rt, g, exec.Options{Model: exec.Model(99)}); !errors.Is(err, exec.ErrUnknownModel) {
		t.Errorf("Run(model 99) = %v, want ErrUnknownModel", err)
	}
}

// TestEstimateDemandEmptyGraph: an empty plan is rejected as a bad graph,
// not a panic or a zero-demand admission.
func TestEstimateDemandEmptyGraph(t *testing.T) {
	g := graph.New()
	_, err := exec.EstimateDemand(g, exec.Options{Model: exec.Chunked})
	if !errors.Is(err, graph.ErrBadGraph) {
		t.Errorf("EstimateDemand(empty) = %v, want ErrBadGraph", err)
	}
}

// TestEstimateDemandZeroRows: a plan over zero-row tables estimates a
// finite (possibly zero) demand, and every model executes it to an empty
// result with aggregates at their init values.
func TestEstimateDemandZeroRows(t *testing.T) {
	rt, dev := gpuRuntime(t)
	g := filterSumGraph(t, nil, nil, 10, dev)
	demand, err := exec.EstimateDemand(g, exec.Options{Model: exec.OperatorAtATime})
	if err != nil {
		t.Fatalf("EstimateDemand(zero rows): %v", err)
	}
	for id, b := range demand {
		if b < 0 {
			t.Errorf("device %d demand = %d, want >= 0", id, b)
		}
	}

	for _, model := range allModels {
		g := filterSumGraph(t, nil, nil, 10, dev)
		res, err := exec.Run(rt, g, exec.Options{Model: model, ChunkElems: 64})
		if err != nil {
			t.Errorf("%v over zero rows: %v", model, err)
			continue
		}
		sum, ok := res.Column("sum")
		if !ok || sum.Len() != 1 || sum.I64()[0] != 0 {
			t.Errorf("%v over zero rows: sum = %v, want [0]", model, sum)
		}
	}
}

// TestPartialStatsOnFault is the regression test for the early-return bug:
// a query that dies mid-run must still report the partial statistics it
// accumulated (chunks staged, virtual time spent) alongside the typed
// error, with its result columns cleared.
func TestPartialStatsOnFault(t *testing.T) {
	rt := hub.NewRuntime()
	plan := &fault.Plan{DieAfterOps: 30}
	if _, err := rt.Register(fault.Wrap(simcuda.New(&simhw.RTX2080Ti, nil), plan)); err != nil {
		t.Fatal(err)
	}

	n := 2048
	a := make([]int32, n)
	b := make([]int32, n)
	for i := range a {
		a[i] = int32(i % 100)
		b[i] = int32(i % 7)
	}
	g := filterSumGraph(t, a, b, 50, 0)
	res, err := exec.Run(rt, g, exec.Options{Model: exec.Chunked, ChunkElems: 128})
	if !errors.Is(err, fault.ErrDeviceLost) {
		t.Fatalf("err = %v, want ErrDeviceLost", err)
	}
	var lost *exec.DeviceLostError
	if !errors.As(err, &lost) || lost.Device != device.ID(0) {
		t.Errorf("err = %v, want DeviceLostError on device 0", err)
	}
	if res == nil {
		t.Fatal("failed run returned no Result: partial stats lost")
	}
	if res.Columns != nil {
		t.Errorf("failed run kept result columns: %v", res.Columns)
	}
	s := res.Stats
	if s.Chunks == 0 {
		t.Error("partial stats: Chunks = 0, want > 0 (the run staged chunks before dying)")
	}
	if s.Elapsed <= 0 {
		t.Errorf("partial stats: Elapsed = %v, want > 0", s.Elapsed)
	}
	if s.Launches == 0 && s.H2DBytes == 0 {
		t.Error("partial stats: no launches and no transfer bytes recorded")
	}
}

// TestRetryTransientRecovers: a scripted transient fault on one transfer is
// retried in virtual time and the query completes with the right answer and
// a non-zero retry count.
func TestRetryTransientRecovers(t *testing.T) {
	rt := hub.NewRuntime()
	plan := &fault.Plan{Script: []fault.Step{
		{At: 2, Op: -1, Kind: fault.Transient},
		{At: 9, Op: -1, Kind: fault.Launch},
	}}
	if _, err := rt.Register(fault.Wrap(simcuda.New(&simhw.RTX2080Ti, nil), plan)); err != nil {
		t.Fatal(err)
	}

	a := []int32{1, 2, 3, 4}
	b := []int32{10, 20, 30, 40}
	var want int64
	for i, v := range a {
		if v < 3 {
			want += int64(b[i])
		}
	}
	g := filterSumGraph(t, a, b, 3, 0)
	res, err := exec.Run(rt, g, exec.Options{
		Model: exec.Chunked,
		Retry: exec.RetryPolicy{MaxRetries: 3},
	})
	if err != nil {
		t.Fatalf("run with retryable faults: %v", err)
	}
	sum, _ := res.Column("sum")
	if sum.I64()[0] != want {
		t.Errorf("sum = %d, want %d", sum.I64()[0], want)
	}
	if res.Stats.Retries == 0 {
		t.Error("Stats.Retries = 0, want > 0 after scripted transients")
	}
}

// TestRetryBudgetExhausts: with no retry budget, the first transient
// surfaces as a typed injected error.
func TestRetryBudgetExhausts(t *testing.T) {
	rt := hub.NewRuntime()
	plan := &fault.Plan{PTransient: 1.0} // every transfer fails
	if _, err := rt.Register(fault.Wrap(simcuda.New(&simhw.RTX2080Ti, nil), plan)); err != nil {
		t.Fatal(err)
	}
	g := filterSumGraph(t, []int32{1, 2, 3}, []int32{4, 5, 6}, 10, 0)
	_, err := exec.Run(rt, g, exec.Options{Model: exec.Chunked})
	if !errors.Is(err, fault.ErrTransient) || !errors.Is(err, fault.ErrInjected) {
		t.Errorf("err = %v, want a typed transient injected error", err)
	}
}

// TestFailoverReroutesToFallback (exec level): the primary dies mid-query
// and the configured fallback finishes it with the correct result and a
// failover event; the dead device keeps no allocations.
func TestFailoverReroutesToFallback(t *testing.T) {
	rt := hub.NewRuntime()
	plan := &fault.Plan{DieAfterOps: 12, Devices: []string{"cuda"}}
	if _, err := rt.Register(fault.Wrap(simcuda.New(&simhw.RTX2080Ti, nil), plan)); err != nil {
		t.Fatal(err)
	}
	fb, err := rt.Register(simomp.New(&simhw.CoreI78700, nil))
	if err != nil {
		t.Fatal(err)
	}

	n := 512
	a := make([]int32, n)
	b := make([]int32, n)
	var want int64
	for i := range a {
		a[i] = int32(i % 10)
		b[i] = int32(i % 13)
		if a[i] < 5 {
			want += int64(b[i])
		}
	}
	g := filterSumGraph(t, a, b, 5, 0)
	res, err := exec.Run(rt, g, exec.Options{
		Model:          exec.Pipelined,
		ChunkElems:     64,
		FallbackDevice: &fb,
	})
	if err != nil {
		t.Fatalf("failover run: %v", err)
	}
	sum, _ := res.Column("sum")
	if sum.I64()[0] != want {
		t.Errorf("sum after failover = %d, want %d", sum.I64()[0], want)
	}
	if len(res.Stats.Events) != 1 || res.Stats.Events[0].Kind != exec.EventFailover {
		t.Errorf("events = %v, want one failover", res.Stats.Events)
	}
	for i, d := range rt.Devices() {
		ms := d.MemStats()
		if ms.Used != 0 || ms.PinnedUsed != 0 || ms.LiveBuffers != 0 {
			t.Errorf("device %d not at baseline: used=%d pinned=%d live=%d",
				i, ms.Used, ms.PinnedUsed, ms.LiveBuffers)
		}
	}

	// A query keeps one wrapper per effective device: looking a device up
	// twice yields the same one, and a failover hands out the fallback's.
	first, second, failedOver, err := exec.DeviceWrappers(rt, 0, fb)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("two lookups of one device built two wrappers")
	}
	if failedOver == first {
		t.Error("the failed-over device kept the dead device's wrapper")
	}
}

// degradeWorkload builds a deterministic multi-chunk filter+sum plan and
// returns (a, b, expected sum for cut).
func degradeWorkload(n int, cut int64) (a, b []int32, want int64) {
	a = make([]int32, n)
	b = make([]int32, n)
	for i := range a {
		a[i] = int32(i % 100)
		b[i] = int32(i % 11)
		if int64(a[i]) < cut {
			want += int64(b[i])
		}
	}
	return a, b, want
}

// TestAdaptiveChunkingHalvesOnOOM: a single scripted OOM mid-run makes the
// adaptive ladder halve the effective chunk size once; the re-run completes
// with the baseline-identical result, one degrade event carrying the
// before/after sizes, and the fault counted against the device.
func TestAdaptiveChunkingHalvesOnOOM(t *testing.T) {
	rt := hub.NewRuntime()
	plan := &fault.Plan{Script: []fault.Step{{At: 8, Op: -1, Kind: fault.OOM}}}
	if _, err := rt.Register(fault.Wrap(simcuda.New(&simhw.RTX2080Ti, nil), plan)); err != nil {
		t.Fatal(err)
	}
	a, b, want := degradeWorkload(2048, 50)
	g := filterSumGraph(t, a, b, 50, 0)
	res, err := exec.Run(rt, g, exec.Options{
		Model:            exec.Chunked,
		ChunkElems:       256,
		MinChunkElems:    64,
		AdaptiveChunking: true,
	})
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	sum, _ := res.Column("sum")
	if sum.I64()[0] != want {
		t.Errorf("sum = %d, want %d", sum.I64()[0], want)
	}
	if len(res.Stats.Events) != 1 {
		t.Fatalf("events = %v, want exactly one degrade", res.Stats.Events)
	}
	ev := res.Stats.Events[0]
	if ev.Kind != exec.EventDegrade || ev.ChunkFrom != 256 || ev.ChunkTo != 128 {
		t.Errorf("event = %+v, want degrade chunk 256->128", ev)
	}
	if res.Stats.FaultsByDevice[device.ID(0)] == 0 {
		t.Error("FaultsByDevice[0] = 0, want > 0 after an injected OOM")
	}
}

// TestAdaptiveChunkingFloorReplacesOnHost: permanent OOM pressure on the
// GPU walks the ladder to its floor and then re-places the query onto the
// host-resident device; the result still matches and every device returns
// to its memory baseline.
func TestAdaptiveChunkingFloorReplacesOnHost(t *testing.T) {
	rt := hub.NewRuntime()
	plan := &fault.Plan{POOM: 1.0, Devices: []string{"cuda"}}
	if _, err := rt.Register(fault.Wrap(simcuda.New(&simhw.RTX2080Ti, nil), plan)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(simomp.New(&simhw.CoreI78700, nil)); err != nil {
		t.Fatal(err)
	}
	a, b, want := degradeWorkload(1024, 40)
	g := filterSumGraph(t, a, b, 40, 0)
	res, err := exec.Run(rt, g, exec.Options{
		Model:            exec.Chunked,
		ChunkElems:       256,
		MinChunkElems:    64,
		AdaptiveChunking: true,
	})
	if err != nil {
		t.Fatalf("floor re-place run: %v", err)
	}
	sum, _ := res.Column("sum")
	if sum.I64()[0] != want {
		t.Errorf("sum = %d, want %d", sum.I64()[0], want)
	}
	evs := res.Stats.Events
	if len(evs) != 3 {
		t.Fatalf("events = %v, want two halvings then a re-place", evs)
	}
	if evs[0].ChunkFrom != 256 || evs[0].ChunkTo != 128 ||
		evs[1].ChunkFrom != 128 || evs[1].ChunkTo != 64 {
		t.Errorf("halving ladder = %v, %v; want 256->128 then 128->64", evs[0], evs[1])
	}
	last := evs[2]
	if last.Kind != exec.EventDegrade || last.From != device.ID(0) || last.To != device.ID(1) {
		t.Errorf("last event = %+v, want re-place 0->1", last)
	}
	for i, d := range rt.Devices() {
		ms := d.MemStats()
		if ms.Used != 0 || ms.PinnedUsed != 0 || ms.LiveBuffers != 0 {
			t.Errorf("device %d not at baseline: used=%d pinned=%d live=%d",
				i, ms.Used, ms.PinnedUsed, ms.LiveBuffers)
		}
	}
}

// TestAdaptiveOAATReplacesDirectly: operator-at-a-time has no chunks to
// shrink, so an OOM re-places straight onto the host device.
func TestAdaptiveOAATReplacesDirectly(t *testing.T) {
	rt := hub.NewRuntime()
	plan := &fault.Plan{POOM: 1.0, Devices: []string{"cuda"}}
	if _, err := rt.Register(fault.Wrap(simcuda.New(&simhw.RTX2080Ti, nil), plan)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(simomp.New(&simhw.CoreI78700, nil)); err != nil {
		t.Fatal(err)
	}
	a, b, want := degradeWorkload(512, 30)
	g := filterSumGraph(t, a, b, 30, 0)
	res, err := exec.Run(rt, g, exec.Options{Model: exec.OperatorAtATime, AdaptiveChunking: true})
	if err != nil {
		t.Fatalf("oaat re-place run: %v", err)
	}
	sum, _ := res.Column("sum")
	if sum.I64()[0] != want {
		t.Errorf("sum = %d, want %d", sum.I64()[0], want)
	}
	if len(res.Stats.Events) != 1 || res.Stats.Events[0].From == res.Stats.Events[0].To {
		t.Errorf("events = %v, want exactly one re-place", res.Stats.Events)
	}
}

// TestOOMFailsFastWithoutAdaptive: without AdaptiveChunking an injected OOM
// surfaces as a typed error (wrapping both the OOM sentinel and OOMError)
// instead of silently degrading.
func TestOOMFailsFastWithoutAdaptive(t *testing.T) {
	rt := hub.NewRuntime()
	plan := &fault.Plan{POOM: 1.0}
	if _, err := rt.Register(fault.Wrap(simcuda.New(&simhw.RTX2080Ti, nil), plan)); err != nil {
		t.Fatal(err)
	}
	g := filterSumGraph(t, []int32{1, 2, 3, 4}, []int32{5, 6, 7, 8}, 3, 0)
	_, err := exec.Run(rt, g, exec.Options{Model: exec.Chunked, ChunkElems: 64})
	if !errors.Is(err, fault.ErrOOM) {
		t.Errorf("err = %v, want fault.ErrOOM", err)
	}
	var oom *exec.OOMError
	if !errors.As(err, &oom) || oom.Device != device.ID(0) {
		t.Errorf("err = %v, want OOMError on device 0", err)
	}
}

// TestDeadlineExceededAtChunkBoundary: a multi-chunk query with a tiny
// virtual-time deadline fails with the typed deadline sentinel at a chunk
// boundary, keeps its partial statistics, and leaks nothing.
func TestDeadlineExceededAtChunkBoundary(t *testing.T) {
	rt, dev := gpuRuntime(t)
	a, b, _ := degradeWorkload(4096, 50)
	g := filterSumGraph(t, a, b, 50, dev)
	res, err := exec.Run(rt, g, exec.Options{
		Model:      exec.Chunked,
		ChunkElems: 64,
		Deadline:   1, // one virtual nanosecond: the first boundary check trips
	})
	if !errors.Is(err, vclock.ErrDeadline) {
		t.Fatalf("err = %v, want vclock.ErrDeadline", err)
	}
	if res == nil || res.Columns != nil {
		t.Errorf("deadline failure: res = %+v, want partial stats without columns", res)
	}
	for i, d := range rt.Devices() {
		ms := d.MemStats()
		if ms.Used != 0 || ms.PinnedUsed != 0 || ms.LiveBuffers != 0 {
			t.Errorf("device %d not at baseline: used=%d pinned=%d live=%d",
				i, ms.Used, ms.PinnedUsed, ms.LiveBuffers)
		}
	}
}
