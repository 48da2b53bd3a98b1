package cost

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/driver/simomp"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/vclock"
)

// testRig builds the standard two-device runtime (CUDA GPU + OpenMP CPU)
// and the planner candidates for it.
func testRig(t *testing.T, makers ...func() device.Device) (*hub.Runtime, []Candidate) {
	t.Helper()
	if len(makers) == 0 {
		makers = []func() device.Device{
			func() device.Device { return simcuda.New(&simhw.RTX2080Ti, nil) },
			func() device.Device { return simomp.New(&simhw.CoreI78700, nil) },
		}
	}
	rt := hub.NewRuntime()
	var cands []Candidate
	for _, mk := range makers {
		id, err := rt.Register(mk())
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, Candidate{ID: id, New: mk})
	}
	return rt, cands
}

var testData *tpch.Dataset

// queryGraph plans a TPC-H query over a small shared dataset, placed on
// dev, or fails the test.
func queryGraph(t *testing.T, q string, dev device.ID) *graph.Graph {
	t.Helper()
	if testData == nil {
		ds, err := tpch.Generate(tpch.Config{SF: 1, Ratio: 1.0 / 4096, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		testData = ds
	}
	g, err := tpch.BuildQuery(q, testData, dev)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPlanDeterministicAndValid(t *testing.T) {
	rt, cands := testRig(t)
	d1, err := NewPlanner(New()).Plan(queryGraph(t, "Q6", 0), rt, PlanOptions{Candidates: cands})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewPlanner(New()).Plan(queryGraph(t, "Q6", 0), rt, PlanOptions{Candidates: cands})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("same catalog, same graph, different decisions:\n%+v\n%+v", d1, d2)
	}
	if d1.ChunkElems < 64 || d1.ChunkElems%64 != 0 {
		t.Errorf("chunk %d not 64-aligned", d1.ChunkElems)
	}
	if d1.MaxChunk < d1.ChunkElems {
		t.Errorf("ceiling %d below chunk %d", d1.MaxChunk, d1.ChunkElems)
	}
	if d1.Predicted <= 0 {
		t.Errorf("predicted %v", d1.Predicted)
	}
	if len(d1.Notes) == 0 || !strings.HasPrefix(d1.Notes[0], "rehearse 10 cells") {
		t.Errorf("cold decision notes %q do not open with the rehearsal", d1.Notes)
	}
}

// TestPlanPicksFastestRehearsedCell: the cold plan is the fastest of the
// manual (device, model) cells, run by hand on the live devices — a
// rehearsal on a fresh instance prices the run exactly.
func TestPlanPicksFastestRehearsedCell(t *testing.T) {
	for _, q := range []string{"Q3", "Q6"} {
		rt, cands := testRig(t)
		dec, err := NewPlanner(New()).Plan(queryGraph(t, q, 0), rt, PlanOptions{Candidates: cands})
		if err != nil {
			t.Fatal(err)
		}
		var best vclock.Duration
		for _, c := range cands {
			for _, m := range exec.Models() {
				g := queryGraph(t, q, c.ID)
				chunk, ceiling, err := NewPlanner(nil).chunkFor(g, rt, m, dec.Rows, PlanOptions{})
				if err != nil {
					t.Fatal(err)
				}
				cell := Decision{MaxChunk: ceiling}
				res, err := exec.Run(rt, g, exec.Options{Model: m, ChunkElems: chunk, Replan: cell.Replan()})
				if err != nil {
					t.Fatal(err)
				}
				if best == 0 || res.Stats.Elapsed < best {
					best = res.Stats.Elapsed
				}
			}
		}
		if dec.Predicted != best {
			t.Errorf("%s: cold plan predicts %v on %s/%v, the best live cell ran %v",
				q, dec.Predicted, dec.Driver, dec.Model, best)
		}
	}
}

// devState is everything planning could disturb on a live device.
type devState struct {
	copyAvail, computeAvail vclock.Time
	copyBusy, computeBusy   vclock.Duration
	stats                   device.Stats
	mem                     devmem.Stats
}

func snapshot(t *testing.T, rt *hub.Runtime, cands []Candidate) []devState {
	t.Helper()
	var out []devState
	for _, c := range cands {
		d, err := rt.Device(c.ID)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, devState{
			copyAvail: d.CopyEngine().Avail(), computeAvail: d.ComputeEngine().Avail(),
			copyBusy: d.CopyEngine().Busy(), computeBusy: d.ComputeEngine().Busy(),
			stats: d.Stats(), mem: d.MemStats(),
		})
	}
	return out
}

// TestPlanLeavesLiveDevicesUntouched: planning, cold or warm, advances no
// live timeline, moves no live counter and allocates no live memory —
// rehearsals run on fresh instances.
func TestPlanLeavesLiveDevicesUntouched(t *testing.T) {
	rt, cands := testRig(t)
	// Give the live devices some history, so an untouched state is not
	// just the zero value.
	for _, c := range cands {
		if _, err := exec.Run(rt, queryGraph(t, "Q6", c.ID), exec.Options{Model: exec.Chunked, ChunkElems: 512}); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshot(t, rt, cands)
	pl := NewPlanner(New())
	for _, phase := range []string{"cold", "warm"} {
		if _, err := pl.Plan(queryGraph(t, "Q3", 0), rt, PlanOptions{Candidates: cands}); err != nil {
			t.Fatal(err)
		}
		if after := snapshot(t, rt, cands); !reflect.DeepEqual(before, after) {
			t.Errorf("%s plan changed live device state:\nbefore %+v\nafter  %+v", phase, before, after)
		}
	}
}

// TestPlanTwiceRehearsesOnce: the first plan of a shape rehearses every
// (device, model) cell; the second finds them all in the catalog and runs
// nothing.
func TestPlanTwiceRehearsesOnce(t *testing.T) {
	rt, cands := testRig(t)
	pl := NewPlanner(New())
	cold, err := pl.Plan(queryGraph(t, "Q3", 0), rt, PlanOptions{Candidates: cands})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cands) * len(exec.Models()); cold.Rehearsals != want {
		t.Errorf("cold plan rehearsed %d cells, want %d", cold.Rehearsals, want)
	}
	warm, err := pl.Plan(queryGraph(t, "Q3", 0), rt, PlanOptions{Candidates: cands})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Rehearsals != 0 {
		t.Errorf("warm plan rehearsed %d cells, want 0", warm.Rehearsals)
	}
	if warm.Model != cold.Model || warm.Device != cold.Device || warm.Predicted != cold.Predicted {
		t.Errorf("warm plan %v on %s (%v) differs from cold %v on %s (%v)",
			warm.Model, warm.Driver, warm.Predicted, cold.Model, cold.Driver, cold.Predicted)
	}
	// Another shape is another set of cells.
	other, err := pl.Plan(queryGraph(t, "Q6", 0), rt, PlanOptions{Candidates: cands})
	if err != nil {
		t.Fatal(err)
	}
	if other.Rehearsals == 0 {
		t.Error("a new plan shape was served from another shape's rates")
	}
}

// TestWarmCatalogReproducesPlans pins the round-trip half of the feedback
// loop: serialize the catalog, read it back, and the deserialized catalog
// must plan the same query identically, rehearsing nothing.
func TestWarmCatalogReproducesPlans(t *testing.T) {
	rt, cands := testRig(t)
	c := New()
	if _, err := NewPlanner(c).Plan(queryGraph(t, "Q6", 0), rt, PlanOptions{Candidates: cands}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	warm, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := NewPlanner(c).Plan(queryGraph(t, "Q6", 0), rt, PlanOptions{Candidates: cands})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewPlanner(warm).Plan(queryGraph(t, "Q6", 0), rt, PlanOptions{Candidates: cands})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("deserialized catalog planned differently:\n%+v\n%+v", d1, d2)
	}
	if d2.Rehearsals != 0 {
		t.Errorf("deserialized catalog rehearsed %d cells", d2.Rehearsals)
	}
}

// TestPlanWarmPairOverride: observed runs that make another (model,
// device) cell the fastest move the whole query there, with every node
// re-placed.
func TestPlanWarmPairOverride(t *testing.T) {
	rt, cands := testRig(t)
	c := New()
	base, err := NewPlanner(c).Plan(queryGraph(t, "Q6", 0), rt, PlanOptions{Candidates: cands})
	if err != nil {
		t.Fatal(err)
	}
	other := cands[0]
	if base.Device == other.ID {
		other = cands[1]
	}
	drv, err := driverName(rt, other.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Near-zero runs of pipelined on the device the cold plan did not pick
	// pull that cell's EWMA below every other cell.
	for i := 0; i < 40; i++ {
		c.ObserveQuery(exec.Pipelined.String(), drv, base.Shape, base.Rows, 0)
	}
	g := queryGraph(t, "Q6", 0)
	warm, err := NewPlanner(c).Plan(g, rt, PlanOptions{Candidates: cands})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Model != exec.Pipelined || warm.Device != other.ID || warm.Rehearsals != 0 {
		t.Fatalf("override not taken: %v on %v after %d rehearsals (want pipelined on %v, 0)",
			warm.Model, warm.Device, warm.Rehearsals, other.ID)
	}
	for _, n := range g.Nodes() {
		if n.Device != other.ID {
			t.Fatalf("node %v left on %v after re-placement", n.ID, n.Device)
		}
	}
}

// TestPlannerRandomCatalogs property-checks the planner over random
// fingerprint-keyed catalogs: whatever whole-query rates it holds, planning
// is deterministic (two catalogs built from the same seed give the same
// decision), a catalog holding every cell rehearses nothing and picks its
// fastest cell, and every decision is a valid configuration — a known
// model, a candidate device, a 64-aligned chunk within bounds. The
// differential harness already proves any such configuration computes the
// right answer; together the two properties say the re-planner can only
// ever switch to bit-identical configs.
func TestPlannerRandomCatalogs(t *testing.T) {
	rt, cands := testRig(t)
	var drivers []string
	for _, c := range cands {
		drv, err := driverName(rt, c.ID)
		if err != nil {
			t.Fatal(err)
		}
		drivers = append(drivers, drv)
	}
	shape := graph.Fingerprint(queryGraph(t, "Q6", 0))
	rows := int64(testData.Lineitem.Rows())
	models := exec.Models()

	build := func(seed int64, nEntries uint8, full bool) *Catalog {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		if full {
			for _, drv := range drivers {
				for _, m := range models {
					c.ObserveQuery(m.String(), drv, shape, rows, vclock.Duration(1+rng.Int63n(int64(vclock.Second))))
				}
			}
		}
		for i := 0; i < int(nEntries); i++ {
			s := shape
			if rng.Intn(3) == 0 {
				s = "other/0000000000000000"
			}
			c.ObserveQuery(models[rng.Intn(len(models))].String(), drivers[rng.Intn(len(drivers))],
				s, rows<<rng.Intn(3), vclock.Duration(1+rng.Int63n(int64(vclock.Second))))
		}
		return c
	}

	f := func(seed int64, nEntries uint8, full bool) bool {
		nEntries %= 32
		d1, err := NewPlanner(build(seed, nEntries, full)).Plan(queryGraph(t, "Q6", 0), rt, PlanOptions{Candidates: cands})
		if err != nil {
			t.Logf("plan failed: %v", err)
			return false
		}
		c2 := build(seed, nEntries, full)
		d2, err := NewPlanner(c2).Plan(queryGraph(t, "Q6", 0), rt, PlanOptions{Candidates: cands})
		if err != nil || !reflect.DeepEqual(d1, d2) {
			t.Logf("non-deterministic plan: %+v vs %+v (err %v)", d1, d2, err)
			return false
		}
		if full {
			if d1.Rehearsals != 0 {
				t.Logf("full catalog rehearsed %d cells", d1.Rehearsals)
				return false
			}
			for _, drv := range drivers {
				for _, m := range models {
					e, _ := c2.Lookup(queryKey(m.String(), drv, shape, rows))
					if pred := vclock.Duration(e.NsPerUnit * float64(rows)); pred < d1.Predicted-1 {
						t.Logf("picked %v on %s at %v over %v on %s at %v", d1.Model, d1.Driver, d1.Predicted, m, drv, pred)
						return false
					}
				}
			}
		}
		validModel := false
		for _, m := range models {
			if d1.Model == m {
				validModel = true
			}
		}
		validDev := false
		for _, c := range cands {
			if d1.Device == c.ID {
				validDev = true
			}
		}
		if !validModel || !validDev {
			t.Logf("invalid decision: %+v", d1)
			return false
		}
		if d1.ChunkElems < 64 || d1.ChunkElems%64 != 0 || d1.ChunkElems > d1.MaxChunk {
			t.Logf("invalid chunk: %+v", d1)
			return false
		}
		// Whatever the drift schedule feeds the hook, it may only propose
		// 64-aligned chunks within [64, ceiling].
		rng := rand.New(rand.NewSource(seed))
		replan := d1.Replan()
		for trial := 0; trial < 16; trial++ {
			o := exec.ReplanObservation{
				Pipeline:   1 + rng.Intn(4),
				EstRows:    rng.Intn(1 << 16),
				ActualRows: rng.Intn(1 << 20),
				ChunkElems: d1.ChunkElems,
			}
			nc, ok := replan(o)
			if !ok {
				continue
			}
			if nc < 64 || nc%64 != 0 || nc > d1.MaxChunk || nc == o.ChunkElems {
				t.Logf("replan proposed invalid chunk %d from %+v (ceiling %d)", nc, o, d1.MaxChunk)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestReplanHook(t *testing.T) {
	d := &Decision{ChunkElems: 256, MaxChunk: 4096}
	hook := d.Replan()

	// No estimate or no observation: never fire.
	if _, ok := hook(exec.ReplanObservation{EstRows: 0, ActualRows: 500, ChunkElems: 256}); ok {
		t.Error("fired without an estimate")
	}
	if _, ok := hook(exec.ReplanObservation{EstRows: 500, ActualRows: 0, ChunkElems: 256}); ok {
		t.Error("fired without an observation")
	}
	// Within 2x either way: hold.
	if _, ok := hook(exec.ReplanObservation{EstRows: 1000, ActualRows: 1999, ChunkElems: 256}); ok {
		t.Error("fired below the 2x drift threshold")
	}
	// 2x over: re-size to the observation, 64-aligned.
	nc, ok := hook(exec.ReplanObservation{EstRows: 500, ActualRows: 1000, ChunkElems: 256})
	if !ok || nc != 1024 {
		t.Errorf("2x drift: got (%d, %v), want (1024, true)", nc, ok)
	}
	// 2x under: shrink.
	nc, ok = hook(exec.ReplanObservation{EstRows: 1000, ActualRows: 100, ChunkElems: 256})
	if !ok || nc != 128 {
		t.Errorf("shrink: got (%d, %v), want (128, true)", nc, ok)
	}
	// Clamped to the plan's ceiling.
	nc, ok = hook(exec.ReplanObservation{EstRows: 1000, ActualRows: 1 << 20, ChunkElems: 256})
	if !ok || nc != 4096 {
		t.Errorf("ceiling clamp: got (%d, %v), want (4096, true)", nc, ok)
	}
	// A drift that lands on the current chunk is a no-op.
	if _, ok := hook(exec.ReplanObservation{EstRows: 100, ActualRows: 250, ChunkElems: 256}); ok {
		t.Error("fired when the re-sized chunk equals the current one")
	}
}

// TestPlanSkipsFailedCells: a device whose rehearsals fail is not a
// candidate, not a fatal error; when every cell fails, Plan returns the
// last error and leaves the graph's placement as it found it.
func TestPlanSkipsFailedCells(t *testing.T) {
	rt, cands := testRig(t,
		func() device.Device { return deadDevice{simomp.New(&simhw.CoreI78700, nil)} },
		func() device.Device { return simcuda.New(&simhw.RTX2080Ti, nil) },
	)
	dec, err := NewPlanner(New()).Plan(queryGraph(t, "Q6", 0), rt, PlanOptions{Candidates: cands})
	if err != nil {
		t.Fatalf("plan with one dead device: %v", err)
	}
	if dec.Device != cands[1].ID {
		t.Errorf("planned onto the dead device %v", dec.Device)
	}
	if !strings.Contains(dec.Notes[0], "(5 failed)") {
		t.Errorf("rehearsal note %q does not count the failed cells", dec.Notes[0])
	}

	g := queryGraph(t, "Q6", 1)
	if _, err := NewPlanner(New()).Plan(g, rt, PlanOptions{Candidates: cands[:1]}); !errors.Is(err, errDead) {
		t.Fatalf("all cells dead: got %v, want the rehearsal error", err)
	}
	for _, n := range g.Nodes() {
		if n.Device != 1 {
			t.Fatalf("failed plan left node %v on %v", n.ID, n.Device)
		}
	}
}

// deadDevice fails every kernel execution.
type deadDevice struct {
	device.Device
}

func (d deadDevice) Execute(req device.ExecRequest, ready vclock.Time) (vclock.Time, error) {
	return 0, errDead
}

var errDead = &deadErr{}

type deadErr struct{}

func (*deadErr) Error() string { return "dead device" }

// TestPlanNoCandidates: an empty candidate list, or a candidate with no
// constructor to rehearse on, is an error, not a panic.
func TestPlanNoCandidates(t *testing.T) {
	rt, cands := testRig(t)
	if _, err := NewPlanner(New()).Plan(queryGraph(t, "Q6", 0), rt, PlanOptions{}); err == nil {
		t.Fatal("planned with no candidates")
	}
	if _, err := NewPlanner(New()).Plan(queryGraph(t, "Q6", 0), rt, PlanOptions{Candidates: []Candidate{{ID: cands[0].ID}}}); err == nil {
		t.Fatal("rehearsed a candidate with no constructor")
	}
}
