package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/fault"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/kernels"
	"github.com/adamant-db/adamant/internal/session"
	"github.com/adamant-db/adamant/internal/shard"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/task"
	"github.com/adamant-db/adamant/internal/telemetry"
	"github.com/adamant-db/adamant/internal/trace"
	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// fleet builds n single-GPU shards, each with its own runtime and
// scheduler. brake[i], when set, slows shard i's GPU that many times over.
func fleet(t *testing.T, n int, brake map[int]float64) []shard.Shard {
	t.Helper()
	shards := make([]shard.Shard, n)
	for i := range shards {
		rt := hub.NewRuntime()
		spec := &simhw.RTX2080Ti
		if k, ok := brake[i]; ok {
			spec = spec.Slowed(k)
		}
		if _, err := rt.Register(simcuda.New(spec, nil)); err != nil {
			t.Fatal(err)
		}
		shards[i] = shard.Shard{
			Name:  fmt.Sprintf("shard%d", i),
			RT:    rt,
			Sched: session.NewScheduler(session.Config{}),
		}
	}
	return shards
}

// dyingFleet builds n shards whose listed members die after a few device
// operations.
func dyingFleet(t *testing.T, n int, die map[int]int64) []shard.Shard {
	t.Helper()
	shards := make([]shard.Shard, n)
	for i := range shards {
		rt := hub.NewRuntime()
		var d device.Device = simcuda.New(&simhw.RTX2080Ti, nil)
		if ops, ok := die[i]; ok {
			d = fault.Wrap(d, &fault.Plan{DieAfterOps: ops})
		}
		if _, err := rt.Register(d); err != nil {
			t.Fatal(err)
		}
		shards[i] = shard.Shard{Name: fmt.Sprintf("shard%d", i), RT: rt}
	}
	return shards
}

// wideGraph builds one plan exercising every merge kind at once: SUM, MIN,
// MAX and COUNT partials, an AVG shipped as raw SUM+COUNT, and a
// row-concatenated output column.
func wideGraph(t *testing.T, dev device.ID, a, b []int32, cut int64) *graph.Graph {
	t.Helper()
	g := graph.New()
	sa := g.AddScan("t.a", vec.FromInt32(a), dev)
	sb := g.AddScan("t.b", vec.FromInt32(b), dev)
	f := g.AddTask(task.NewFilterBitmap(kernels.CmpLt, cut, 0, "a<cut"), dev, sa)
	mt, err := task.NewMaterialize(vec.Int32, "b|f")
	if err != nil {
		t.Fatal(err)
	}
	m := g.AddTask(mt, dev, sb, g.Out(f, 0))
	cast := g.AddTask(task.NewMapCast("widen"), dev, g.Out(m, 0))
	mkAgg := func(op kernels.AggOp) graph.NodeID {
		at, err := task.NewAggBlock(op, vec.Int64, op.String())
		if err != nil {
			t.Fatal(err)
		}
		return g.AddTask(at, dev, g.Out(cast, 0))
	}
	sum := mkAgg(kernels.AggSum)
	min := mkAgg(kernels.AggMin)
	max := mkAgg(kernels.AggMax)
	cnt := mkAgg(kernels.AggCount)
	bits := g.AddTask(task.NewAggCountBits("count"), dev, g.Out(f, 0))
	g.MarkResult("sum", g.Out(sum, 0))
	g.MarkResult("min", g.Out(min, 0))
	g.MarkResult("max", g.Out(max, 0))
	g.MarkResult("matched", g.Out(bits, 0))
	g.MarkResultAvg("avg", g.Out(sum, 0), g.Out(cnt, 0))
	g.MarkResult("rows", g.Out(cast, 0))
	return g
}

// groupGraph builds a hash group-by: sum(vals) grouped by keys, extracted
// as sorted (key, sum) columns.
func groupGraph(t *testing.T, dev device.ID, keys, vals []int32) *graph.Graph {
	t.Helper()
	g := graph.New()
	sk := g.AddScan("t.k", vec.FromInt32(keys), dev)
	sv := g.AddScan("t.v", vec.FromInt32(vals), dev)
	cast := g.AddTask(task.NewMapCast("widen"), dev, sv)
	ha := g.AddTask(task.NewHashAgg(kernels.AggSum, 4096, "group"), dev, sk, g.Out(cast, 0))
	ex := g.AddTask(task.NewHashExtract(4096, "extract"), dev, g.Out(ha, 0))
	g.MarkResult("k", g.Out(ex, 0))
	g.MarkResult("sum", g.Out(ex, 1))
	return g
}

func sameColumns(t *testing.T, label string, want, got *exec.Result) {
	t.Helper()
	if len(want.Columns) != len(got.Columns) {
		t.Fatalf("%s: %d columns, want %d", label, len(got.Columns), len(want.Columns))
	}
	for i, wc := range want.Columns {
		gc := got.Columns[i]
		if wc.Name != gc.Name {
			t.Fatalf("%s: column %d = %q, want %q", label, i, gc.Name, wc.Name)
		}
		if wc.Data.Type() != gc.Data.Type() || wc.Data.Len() != gc.Data.Len() {
			t.Fatalf("%s: column %q shape %v/%d vs %v/%d", label, wc.Name,
				gc.Data.Type(), gc.Data.Len(), wc.Data.Type(), wc.Data.Len())
		}
		equal := true
		switch wc.Data.Type() {
		case vec.Int32:
			equal = reflect.DeepEqual(wc.Data.I32(), gc.Data.I32())
		case vec.Int64:
			equal = reflect.DeepEqual(wc.Data.I64(), gc.Data.I64())
		case vec.Float64:
			equal = reflect.DeepEqual(wc.Data.F64(), gc.Data.F64())
		}
		if !equal {
			t.Errorf("%s: column %q diverged", label, wc.Name)
		}
	}
}

func randomData(seed int64, rows int) (a, b []int32) {
	rng := rand.New(rand.NewSource(seed))
	a = make([]int32, rows)
	b = make([]int32, rows)
	for i := range a {
		a[i] = int32(rng.Intn(1000))
		b[i] = int32(rng.Intn(1000))
	}
	return a, b
}

// TestShardedMatchesUnsharded is the exactness core: every merge kind, over
// shard counts 1..8, row counts that do and do not split evenly, and both
// streaming models, reproduces the single-runtime answer bit for bit.
func TestShardedMatchesUnsharded(t *testing.T) {
	rowsCases := []int{2048, 777, 130}
	models := []exec.Model{exec.OperatorAtATime, exec.Chunked}
	for _, rows := range rowsCases {
		a, b := randomData(int64(rows), rows)
		for _, model := range models {
			opts := exec.Options{Model: model, ChunkElems: 256}
			baseRT := hub.NewRuntime()
			if _, err := baseRT.Register(simcuda.New(&simhw.RTX2080Ti, nil)); err != nil {
				t.Fatal(err)
			}
			want, err := exec.Run(baseRT, wideGraph(t, 0, a, b, 500), opts)
			if err != nil {
				t.Fatalf("unsharded baseline: %v", err)
			}
			wantGroup, err := exec.Run(baseRT, groupGraph(t, 0, a, b), opts)
			if err != nil {
				t.Fatalf("unsharded group baseline: %v", err)
			}
			for n := 1; n <= 8; n++ {
				c, err := shard.New(shard.Config{Shards: fleet(t, n, nil)})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("rows=%d model=%v shards=%d", rows, model, n)
				got, scattered, err := c.Run(context.Background(), wideGraph(t, 0, a, b, 500), opts, 0)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !scattered {
					t.Fatalf("%s: planner declined the wide graph", label)
				}
				sameColumns(t, label, want, got)
				if len(got.Stats.Shards) != n {
					t.Fatalf("%s: %d shard stats", label, len(got.Stats.Shards))
				}
				gotGroup, scattered, err := c.Run(context.Background(), groupGraph(t, 0, a, b), opts, 0)
				if err != nil {
					t.Fatalf("%s group: %v", label, err)
				}
				if !scattered {
					t.Fatalf("%s: planner declined the group graph", label)
				}
				sameColumns(t, label+" group", wantGroup, gotGroup)
			}
		}
	}
}

// TestExplicitBoundaries: a skewed explicit partition layout still merges
// exactly; malformed layouts are typed errors before anything runs.
func TestExplicitBoundaries(t *testing.T) {
	const rows = 1024
	a, b := randomData(7, rows)
	opts := exec.Options{Model: exec.Chunked, ChunkElems: 256}
	baseRT := hub.NewRuntime()
	if _, err := baseRT.Register(simcuda.New(&simhw.RTX2080Ti, nil)); err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(baseRT, wideGraph(t, 0, a, b, 500), opts)
	if err != nil {
		t.Fatal(err)
	}

	// One shard holds 4x the rows of the other three combined slots.
	c, err := shard.New(shard.Config{
		Shards:     fleet(t, 4, nil),
		Boundaries: []int{0, 832, 896, 960, 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Run(context.Background(), wideGraph(t, 0, a, b, 500), opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameColumns(t, "skewed", want, got)
	if got.Stats.Shards[0].Rows != 832 {
		t.Errorf("skewed partition rows = %d, want 832", got.Stats.Shards[0].Rows)
	}

	bad := [][]int{
		{0, 512, 1024},            // wrong count for 4 shards
		{0, 100, 512, 768, 1024},  // unaligned interior cut
		{0, 512, 256, 768, 1024},  // not monotone
		{64, 512, 768, 896, 1024}, // does not start at 0
		{0, 512, 768, 896, 999},   // does not end at rows
	}
	for _, bounds := range bad {
		cb, err := shard.New(shard.Config{Shards: fleet(t, 4, nil), Boundaries: bounds})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cb.Run(context.Background(), wideGraph(t, 0, a, b, 500), opts, 0); err == nil {
			t.Errorf("boundaries %v accepted", bounds)
		}
	}
}

// TestShardFailover: a shard that dies mid-query gets its partition
// re-dispatched to a healthy peer, the result stays exact, and the death
// mark persists so the next query avoids the dead shard from the start.
func TestShardFailover(t *testing.T) {
	const rows = 1024
	a, b := randomData(11, rows)
	opts := exec.Options{Model: exec.Chunked, ChunkElems: 256}
	baseRT := hub.NewRuntime()
	if _, err := baseRT.Register(simcuda.New(&simhw.RTX2080Ti, nil)); err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(baseRT, wideGraph(t, 0, a, b, 500), opts)
	if err != nil {
		t.Fatal(err)
	}

	sink := telemetry.NewEventSink(64)
	c, err := shard.New(shard.Config{
		Shards: dyingFleet(t, 3, map[int]int64{1: 9}),
		Events: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Run(context.Background(), wideGraph(t, 0, a, b, 500), opts, 0)
	if err != nil {
		t.Fatalf("failover run: %v", err)
	}
	sameColumns(t, "failover", want, got)
	st := got.Stats.Shards[1]
	if !st.FailedOver || st.Ran == 1 {
		t.Errorf("partition 1 stat = %+v, want failed over off shard 1", st)
	}
	if dead := c.Dead(); len(dead) != 1 || dead[0] != 1 {
		t.Errorf("dead = %v, want [1]", dead)
	}
	if n := sink.Totals()[telemetry.EventShardFailover]; n == 0 {
		t.Error("no shard_failover event emitted")
	}
	var failoverEvents int
	for _, ev := range got.Stats.Events {
		if ev.Kind == exec.EventShardFailover {
			failoverEvents++
		}
	}
	if failoverEvents == 0 {
		t.Error("no EventShardFailover in the result event log")
	}

	// Second query: partition 1 is reassigned at dispatch, not after
	// another failed attempt.
	got2, _, err := c.Run(context.Background(), wideGraph(t, 0, a, b, 500), opts, 0)
	if err != nil {
		t.Fatalf("post-death run: %v", err)
	}
	sameColumns(t, "post-death", want, got2)
	if st := got2.Stats.Shards[1]; !st.FailedOver || st.Ran == 1 {
		t.Errorf("post-death partition 1 stat = %+v", st)
	}
}

// TestShardLossModes: with every shard dead the Fail mode surfaces a typed
// *LostError; the Partial mode (failover disabled) completes without the
// dead shard's partition and flags exactly that partition.
func TestShardLossModes(t *testing.T) {
	const rows = 1024
	a, b := randomData(13, rows)
	opts := exec.Options{Model: exec.Chunked, ChunkElems: 256}

	// Every shard dies: nothing to fail over to.
	c, err := shard.New(shard.Config{
		Shards: dyingFleet(t, 2, map[int]int64{0: 7, 1: 7}),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, scattered, err := c.Run(context.Background(), wideGraph(t, 0, a, b, 500), opts, 0)
	if !scattered || err == nil {
		t.Fatalf("all-dead run: scattered=%v err=%v", scattered, err)
	}
	if !errors.Is(err, shard.ErrShardLost) {
		t.Fatalf("all-dead error %v does not match ErrShardLost", err)
	}
	var lost *shard.LostError
	if !errors.As(err, &lost) {
		t.Fatalf("all-dead error %v is not a *LostError", err)
	}

	// One shard dies, failover disabled, Partial mode: the rest of the
	// answer arrives with the loss flagged exactly.
	cp, err := shard.New(shard.Config{
		Shards:       dyingFleet(t, 4, map[int]int64{2: 9}),
		Loss:         shard.LossPartial,
		MaxFailovers: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := cp.Run(context.Background(), wideGraph(t, 0, a, b, 500), opts, 0)
	if err != nil {
		t.Fatalf("partial run: %v", err)
	}
	if !reflect.DeepEqual(got.Stats.PartialShards, []int{2}) {
		t.Fatalf("PartialShards = %v, want [2]", got.Stats.PartialShards)
	}
	if !got.Stats.Shards[2].Lost {
		t.Errorf("partition 2 stat not marked lost: %+v", got.Stats.Shards[2])
	}

	// The partial answer equals the unsharded answer over the surviving
	// partitions only.
	bounds := graph.ShardBoundaries(rows, 4)
	var sa, sb []int32
	for p := 0; p < 4; p++ {
		if p == 2 {
			continue
		}
		sa = append(sa, a[bounds[p]:bounds[p+1]]...)
		sb = append(sb, b[bounds[p]:bounds[p+1]]...)
	}
	baseRT := hub.NewRuntime()
	if _, err := baseRT.Register(simcuda.New(&simhw.RTX2080Ti, nil)); err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(baseRT, wideGraph(t, 0, sa, sb, 500), opts)
	if err != nil {
		t.Fatal(err)
	}
	sameColumns(t, "partial", want, got)
}

// TestShardDeadlineTyped: the query's virtual-time budget applies per shard
// on its own clocks; an impossible budget fails every partition with the
// typed deadline error, not a loss or a wrong answer.
func TestShardDeadlineTyped(t *testing.T) {
	const rows = 4096
	a, b := randomData(17, rows)
	c, err := shard.New(shard.Config{Shards: fleet(t, 2, nil)})
	if err != nil {
		t.Fatal(err)
	}
	opts := exec.Options{Model: exec.Chunked, ChunkElems: 128, Deadline: vclock.Duration(1)}
	_, scattered, err := c.Run(context.Background(), wideGraph(t, 0, a, b, 500), opts, 0)
	if !scattered || err == nil {
		t.Fatalf("deadline run: scattered=%v err=%v", scattered, err)
	}
	if !errors.Is(err, vclock.ErrDeadline) {
		t.Fatalf("deadline error = %v", err)
	}
}

// hedgeRuns runs the wide graph runs times on fresh four-shard fleets
// whose shard 3 is braked k-fold, checking every answer against the
// unsharded one, and returns the results.
func hedgeRuns(t *testing.T, runs int, k float64, hedge shard.HedgePolicy, sink *telemetry.EventSink) []*exec.Result {
	t.Helper()
	const rows = 2048
	a, b := randomData(23, rows)
	opts := exec.Options{Model: exec.OperatorAtATime}
	baseRT := hub.NewRuntime()
	if _, err := baseRT.Register(simcuda.New(&simhw.RTX2080Ti, nil)); err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(baseRT, wideGraph(t, 0, a, b, 500), opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*exec.Result, runs)
	for i := range out {
		c, err := shard.New(shard.Config{Shards: fleet(t, 4, map[int]float64{3: k}), Hedge: hedge, Events: sink})
		if err != nil {
			t.Fatal(err)
		}
		got, scattered, err := c.Run(context.Background(), wideGraph(t, 0, a, b, 500), opts, 0)
		if err != nil || !scattered {
			t.Fatalf("run %d: scattered=%v err=%v", i, scattered, err)
		}
		sameColumns(t, fmt.Sprintf("brake %gx run %d", k, i), want, got)
		out[i] = got
	}
	return out
}

// TestHedgingBoundsVirtualTail is the straggler acceptance case: on a
// fleet whose last shard is 16x slower, the hedged query duplicates the
// straggling partition on shard 0 (the earliest to finish, lowest index)
// and completes earlier in virtual time than the unhedged one. The
// decision reads only virtual times, so every run reports the same
// elapsed to the nanosecond.
func TestHedgingBoundsVirtualTail(t *testing.T) {
	const runs = 3
	slow := hedgeRuns(t, 1, 16, shard.HedgePolicy{}, nil)[0]
	if st := slow.Stats.Shards[3]; st.Hedged || st.Ran != 3 {
		t.Fatalf("unhedged straggler stat = %+v", st)
	}
	sink := telemetry.NewEventSink(64)
	fast := hedgeRuns(t, runs, 16, shard.HedgePolicy{Enabled: true}, sink)
	totals := sink.Totals()
	if totals[telemetry.EventShardStraggler] != runs || totals[telemetry.EventShardHedge] != runs {
		t.Errorf("events %v, want one shard_straggler and one shard_hedge per run", totals)
	}
	for i, got := range fast {
		st := got.Stats.Shards[3]
		if !(st.Hedged && st.HedgeWon && st.Ran == 0) {
			t.Errorf("run %d: straggler partition stat = %+v, want a winning hedge on shard 0", i, st)
		}
		if got.Stats.Elapsed != st.Elapsed {
			t.Errorf("run %d: query elapsed %v, want the hedged partition's completion %v", i, got.Stats.Elapsed, st.Elapsed)
		}
		if got.Stats.Elapsed >= slow.Stats.Elapsed {
			t.Errorf("run %d: hedged elapsed %v not below unhedged %v", i, got.Stats.Elapsed, slow.Stats.Elapsed)
		}
		if got.Stats.Elapsed != fast[0].Stats.Elapsed {
			t.Errorf("run %d: hedged elapsed %v differs from run 0's %v", i, got.Stats.Elapsed, fast[0].Stats.Elapsed)
		}
	}
	t.Logf("unhedged %v, hedged %v", slow.Stats.Elapsed, fast[0].Stats.Elapsed)
}

// TestHedgeSkippedWhenItCannotWin: a mild brake keeps the slow partition
// under the threshold, so no duplicate runs and the primary's elapsed is
// what the query reports.
func TestHedgeSkippedWhenItCannotWin(t *testing.T) {
	plain := hedgeRuns(t, 1, 1.5, shard.HedgePolicy{}, nil)[0]
	sink := telemetry.NewEventSink(64)
	got := hedgeRuns(t, 1, 1.5, shard.HedgePolicy{Enabled: true}, sink)[0]
	st := got.Stats.Shards[3]
	if st.Hedged || st.HedgeWon || st.Ran != 3 {
		t.Errorf("mildly braked partition stat = %+v, want no hedge", st)
	}
	if n := sink.Totals()[telemetry.EventShardHedge]; n != 0 {
		t.Errorf("%d shard_hedge events, want 0", n)
	}
	if st.Elapsed != plain.Stats.Shards[3].Elapsed || got.Stats.Elapsed != plain.Stats.Elapsed {
		t.Errorf("elapsed %v (partition %v), want the unhedged %v (partition %v)",
			got.Stats.Elapsed, st.Elapsed, plain.Stats.Elapsed, plain.Stats.Shards[3].Elapsed)
	}
}

// TestShardTraceGrafted: sharded runs keep the deterministic trace shape —
// one shard container span per partition, in partition order, with the
// winner's spans grafted beneath it.
func TestShardTraceGrafted(t *testing.T) {
	const rows = 1024
	a, b := randomData(29, rows)
	c, err := shard.New(shard.Config{Shards: fleet(t, 3, nil)})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	opts := exec.Options{Model: exec.Chunked, ChunkElems: 256, Recorder: rec}
	if _, _, err := c.Run(context.Background(), wideGraph(t, 0, a, b, 500), opts, 0); err != nil {
		t.Fatal(err)
	}
	var containers []trace.Span
	childOf := map[trace.SpanID]int{}
	for _, s := range rec.Spans() {
		if s.Kind == trace.KindShard {
			containers = append(containers, s)
		}
	}
	if len(containers) != 3 {
		t.Fatalf("%d shard containers, want 3", len(containers))
	}
	for _, s := range rec.Spans() {
		for i, cont := range containers {
			if s.Parent == cont.ID {
				childOf[cont.ID] = i
			}
		}
	}
	if len(childOf) != 3 {
		t.Errorf("only %d containers have grafted children", len(childOf))
	}
}
