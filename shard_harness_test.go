package adamant

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/fault"
	"github.com/adamant-db/adamant/internal/simhw"
)

// The sharded differential harness: the same random plans the fault
// harness uses, executed scattered over 1..8 runtime shards, must
// reproduce the single-runtime answer bit-for-bit — and with fault
// schedules replicated onto every shard, must still come back
// baseline-or-typed-error, never a silent wrong answer.

var harnessShardCounts = []int{1, 2, 3, 4, 6, 8}

// checkShardMemBaseline asserts every device on every shard released its
// memory (no shard attempt outlives the query that started it).
func checkShardMemBaseline(t *testing.T, eng *Engine, label string) {
	t.Helper()
	for s, sc := range eng.shardCtxs {
		for i, d := range sc.rt.Devices() {
			ms := d.MemStats()
			if ms.Used != 0 || ms.PinnedUsed != 0 || ms.LiveBuffers != 0 {
				t.Errorf("%s: shard %d device %d memory not at baseline: used=%d pinned=%d live=%d",
					label, s, i, ms.Used, ms.PinnedUsed, ms.LiveBuffers)
			}
		}
	}
}

// shardHarnessTypedError extends the typed-failure set with the shard-loss
// sentinel: a scattered query that cannot recover a partition surfaces
// ErrShardLost instead of a device-level loss.
func shardHarnessTypedError(err error) bool {
	return harnessTypedError(err) || errors.Is(err, ErrShardLost)
}

// TestDifferentialShardHarness runs random plans across shard counts,
// execution models and drivers, fault-free: every scattered run must equal
// the unsharded baseline exactly, and plans the planner declines must fall
// back unsharded with identical results.
func TestDifferentialShardHarness(t *testing.T) {
	pairs := 120
	if testing.Short() {
		pairs = 12
	}
	var scatteredRuns int
	for i := 0; i < pairs; i++ {
		model := harnessModels[i%len(harnessModels)]
		drv := harnessDrivers[(i/len(harnessModels))%len(harnessDrivers)]
		n := harnessShardCounts[(i/(len(harnessModels)*len(harnessDrivers)))%len(harnessShardCounts)]
		seed := int64(i)*7919 + 3
		label := fmt.Sprintf("pair %d (%v on %s, %d shards)", i, model, drv.name, n)

		baseEng := harnessEngine(t, drv, nil)
		opts := ExecOptions{Model: model, ChunkElems: 256}
		baseRes, err := baseEng.Execute(buildHarnessPlan(baseEng, seed), opts)
		if err != nil {
			t.Fatalf("%s: unsharded baseline failed: %v", label, err)
		}

		shardEng := harnessEngine(t, drv, nil, WithShards(n))
		res, err := shardEng.Execute(buildHarnessPlan(shardEng, seed), opts)
		if err != nil {
			t.Fatalf("%s: sharded run failed: %v", label, err)
		}
		sameResults(t, label, baseRes, res)
		if st := res.ShardStats(); st != nil {
			scatteredRuns++
			if len(st) != n {
				t.Errorf("%s: %d shard stats, want %d", label, len(st), n)
			}
		}
		checkShardMemBaseline(t, shardEng, label)
	}
	t.Logf("%d of %d runs scattered", scatteredRuns, pairs)
	if scatteredRuns == 0 {
		t.Error("no run ever scattered; the planner or wiring is broken")
	}
}

// TestDifferentialShardFaultHarness composes the fault schedules with
// sharding: every shard draws an independent fault stream from the same
// plan, and each run must match the fault-free unsharded baseline exactly
// or fail with a typed error — including the shard-loss sentinel.
func TestDifferentialShardFaultHarness(t *testing.T) {
	pairs := 120
	if testing.Short() {
		pairs = 12
	}
	var matched, failedTyped int
	for i := 0; i < pairs; i++ {
		model := harnessModels[i%len(harnessModels)]
		drv := harnessDrivers[(i/len(harnessModels))%len(harnessDrivers)]
		n := harnessShardCounts[(i/(len(harnessModels)*len(harnessDrivers)))%len(harnessShardCounts)]
		seed := int64(i)*7919 + 3
		label := fmt.Sprintf("pair %d (%v on %s, %d shards)", i, model, drv.name, n)

		baseEng := harnessEngine(t, drv, nil)
		opts := ExecOptions{Model: model, ChunkElems: 256}
		baseRes, err := baseEng.Execute(buildHarnessPlan(baseEng, seed), opts)
		if err != nil {
			t.Fatalf("%s: fault-free baseline failed: %v", label, err)
		}

		faultEng := harnessEngine(t, drv, harnessFaultPlan(i, drv), WithShards(n))
		faultRes, err := faultEng.Execute(buildHarnessPlan(faultEng, seed), opts)
		switch {
		case err == nil:
			sameResults(t, label, baseRes, faultRes)
			matched++
		case shardHarnessTypedError(err):
			failedTyped++
		default:
			t.Errorf("%s: untyped error under faults: %v", label, err)
		}
		checkShardMemBaseline(t, faultEng, label)
	}
	t.Logf("%d runs matched the baseline, %d failed with typed errors", matched, failedTyped)
	if matched == 0 {
		t.Error("no faulted sharded run ever completed; recovery is not working")
	}
	if !testing.Short() && failedTyped == 0 {
		t.Error("no faulted sharded run ever failed; the schedules are not injecting")
	}
}

// shardKillPlan wraps every device in an injector that never fires on its
// own, so tests can kill individual shards deterministically.
func shardKillPlan(drv harnessDriver) *FaultPlan {
	return &FaultPlan{DieAfterOps: 1 << 40, Devices: []string{drv.devName}}
}

// killShard kills the primary device of one shard of a sharded engine.
func killShard(t *testing.T, eng *Engine, s int) {
	t.Helper()
	inj, ok := eng.shardCtxs[s].rt.Devices()[0].(*fault.Injector)
	if !ok {
		t.Fatalf("shard %d device 0 is not fault-wrapped", s)
	}
	inj.Kill()
}

// pickScatteringSeed finds a harness seed whose plan the scatter planner
// accepts (some seeds draw zero rows or shapes that fall back unsharded).
func pickScatteringSeed(t *testing.T, drv harnessDriver, n int) int64 {
	t.Helper()
	for seed := int64(0); seed < 40; seed++ {
		eng := harnessEngine(t, drv, nil, WithShards(n))
		res, err := eng.Execute(buildHarnessPlan(eng, seed), ExecOptions{Model: Chunked, ChunkElems: 256})
		if err != nil {
			t.Fatal(err)
		}
		if res.ShardStats() != nil {
			return seed
		}
	}
	t.Fatal("no scattering seed found")
	return 0
}

// TestShardLossFacade drives both loss modes through the public API: with
// failover disabled and one shard killed, Fail mode surfaces the typed
// *ShardLostError while Partial mode completes and flags exactly the lost
// partition.
func TestShardLossFacade(t *testing.T) {
	drv := harnessDrivers[0]
	seed := pickScatteringSeed(t, drv, 4)
	opts := ExecOptions{Model: Chunked, ChunkElems: 256}

	failEng := NewEngine(WithShards(4), WithShardFailovers(-1), WithFaultPlan(shardKillPlan(drv)))
	if _, err := failEng.Plug(drv.hw, drv.sdk); err != nil {
		t.Fatal(err)
	}
	killShard(t, failEng, 2)
	_, err := failEng.Execute(buildHarnessPlan(failEng, seed), opts)
	if !errors.Is(err, ErrShardLost) {
		t.Fatalf("fail mode error = %v, want ErrShardLost", err)
	}
	var lost *ShardLostError
	if !errors.As(err, &lost) || lost.Partition != 2 {
		t.Fatalf("fail mode error %v does not carry partition 2", err)
	}
	checkShardMemBaseline(t, failEng, "loss-fail")

	partEng := NewEngine(WithShards(4), WithShardFailovers(-1),
		WithShardLoss(ShardLossPartial), WithFaultPlan(shardKillPlan(drv)))
	if _, err := partEng.Plug(drv.hw, drv.sdk); err != nil {
		t.Fatal(err)
	}
	killShard(t, partEng, 2)
	res, err := partEng.Execute(buildHarnessPlan(partEng, seed), opts)
	if err != nil {
		t.Fatalf("partial mode: %v", err)
	}
	partial, which := res.Partial()
	if !partial || len(which) != 1 || which[0] != 2 {
		t.Fatalf("Partial() = %v %v, want true [2]", partial, which)
	}
	st := res.ShardStats()
	for p, s := range st {
		if s.Lost != (p == 2) {
			t.Errorf("partition %d Lost = %v", p, s.Lost)
		}
	}
	var lostEvents int
	for _, ev := range res.Stats().Events {
		if ev.Kind == EventShardLost {
			lostEvents++
		}
	}
	if lostEvents != 1 {
		t.Errorf("%d shard-lost events, want 1", lostEvents)
	}
	if dead := partEng.DeadShards(); len(dead) != 1 || dead[0] != 2 {
		t.Errorf("DeadShards() = %v, want [2]", dead)
	}
	checkShardMemBaseline(t, partEng, "loss-partial")
}

// TestShardFailoverFacade: with failover at its default bound, a killed
// shard's partition lands on a healthy peer and the answer still matches
// the unsharded baseline bit-for-bit.
func TestShardFailoverFacade(t *testing.T) {
	drv := harnessDrivers[0]
	seed := pickScatteringSeed(t, drv, 4)
	opts := ExecOptions{Model: Chunked, ChunkElems: 256}

	baseEng := harnessEngine(t, drv, nil)
	baseRes, err := baseEng.Execute(buildHarnessPlan(baseEng, seed), opts)
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(WithShards(4), WithFaultPlan(shardKillPlan(drv)))
	if _, err := eng.Plug(drv.hw, drv.sdk); err != nil {
		t.Fatal(err)
	}
	killShard(t, eng, 1)
	res, err := eng.Execute(buildHarnessPlan(eng, seed), opts)
	if err != nil {
		t.Fatalf("failover run: %v", err)
	}
	sameResults(t, "shard failover", baseRes, res)
	st := res.ShardStats()
	if !st[1].FailedOver || st[1].Ran == 1 {
		t.Errorf("partition 1 stat = %+v, want failed over off shard 1", st[1])
	}
	checkShardMemBaseline(t, eng, "shard failover")
}

// TestShardLossDrainsPool is the buffer-pool shard-removal regression:
// warm cached columns and in-flight leases on a shard must not survive the
// shard's death. Killing every shard of a pooled engine fails the query
// typed, and after draining, every shard pool is empty and every device is
// back to its memory baseline — the device-death invalidation path fires
// on shard removal too.
func TestShardLossDrainsPool(t *testing.T) {
	drv := harnessDrivers[0]
	seed := pickScatteringSeed(t, drv, 3)
	opts := ExecOptions{Model: Chunked, ChunkElems: 256}

	eng := NewEngine(WithShards(3), WithFaultPlan(shardKillPlan(drv)),
		WithBufferPool(64<<20, CacheCostAware))
	if _, err := eng.Plug(drv.hw, drv.sdk); err != nil {
		t.Fatal(err)
	}
	cols := &harnessColumns{}
	if _, err := eng.Execute(buildHarnessPlanCols(eng, seed, cols), opts); err != nil {
		t.Fatalf("warming query: %v", err)
	}
	var warm int64
	for _, sc := range eng.shardCtxs {
		warm += sc.pool.Stats().CachedBytes
	}
	if warm == 0 {
		t.Fatal("no shard pool holds cached bytes after the warming query")
	}

	for s := range eng.shardCtxs {
		killShard(t, eng, s)
	}
	_, err := eng.Execute(buildHarnessPlanCols(eng, seed, cols), opts)
	if !shardHarnessTypedError(err) {
		t.Fatalf("all-shards-dead error = %v, want typed", err)
	}
	for s, sc := range eng.shardCtxs {
		if got := sc.pool.Stats().CachedBytes; got != 0 {
			t.Errorf("shard %d pool still caches %d bytes after shard loss", s, got)
		}
	}
	checkShardMemBaseline(t, eng, "shard-loss pool drain")
}

// TestShardTelemetryFacade: sharded queries surface in the adamant_shard_*
// metric families alongside the usual per-query counters. Shard 3 of the
// four is plugged with a 16x slower GPU, so its partition straggles and
// the hedged duplicate on a healthy shard wins.
func TestShardTelemetryFacade(t *testing.T) {
	drv := harnessDrivers[0]
	seed := pickScatteringSeed(t, drv, 4)
	eng := NewEngine(WithShards(4), WithShardHedging(ShardHedgePolicy{})).WithTelemetry(TelemetryConfig{})
	var plugged int
	if _, err := eng.PlugMaker(func() device.Device {
		spec := &simhw.RTX2080Ti
		if plugged == 3 {
			spec = spec.Slowed(16)
		}
		plugged++
		return simcuda.New(spec, nil)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Execute(buildHarnessPlan(eng, seed), ExecOptions{Model: Chunked, ChunkElems: 256}); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := eng.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	prom := b.String()
	if !strings.Contains(prom, `adamant_shard_queries_total{model="chunked"} 1`) {
		t.Errorf("shard query counter missing:\n%s", prom)
	}
	if !strings.Contains(prom, "adamant_queries_total") {
		t.Errorf("per-query counters missing from sharded run:\n%s", prom)
	}
	for _, family := range []string{"adamant_shard_hedges_total", "adamant_shard_hedge_wins_total"} {
		if !strings.Contains(prom, "\n"+family+" 1\n") {
			t.Errorf("%s does not read 1:\n%s", family, prom)
		}
	}
}

// TestShardConfigErrors: invalid option combinations surface as typed
// configuration errors at Plug/Execute time, since NewEngine cannot fail.
func TestShardConfigErrors(t *testing.T) {
	eng := NewEngine(WithShards(2), WithAutoPlan())
	if _, err := eng.Plug(RTX2080Ti, CUDA); err == nil {
		t.Error("WithShards+WithAutoPlan accepted at Plug")
	}

	eng2 := NewEngine(WithShards(2))
	if _, err := eng2.Plug(RTX2080Ti, CUDA); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.PlugDevice(nil); err == nil {
		t.Error("PlugDevice accepted on a sharded engine")
	}
	if got := eng2.ShardCount(); got != 2 {
		t.Errorf("ShardCount() = %d, want 2", got)
	}
}
