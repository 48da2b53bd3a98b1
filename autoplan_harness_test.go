package adamant

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/adamant-db/adamant/internal/cost"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/driver/simomp"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/trace"
)

// The differential auto-planning harness: for the same random plan
// population the fault and fusion harnesses use, an auto-planned run — the
// engine choosing device placement, execution model, and chunk size from
// its cost catalog, possibly restarting mid-query on cardinality drift —
// must match the hand-configured run bit-for-bit. Planning decides only
// *where and how* a query runs, never *what* it computes; any observable
// difference beyond the trace and the timings is a bug.

// TestDifferentialAutoPlan compares auto-planned against manually
// configured execution across 5 models × 4 drivers of random plans. The
// manual side pins each pair's model and a 256-value chunk; the auto side
// is free to pick anything, so the comparison covers every (manual config,
// auto config) combination the planner can reach.
func TestDifferentialAutoPlan(t *testing.T) {
	pairs := 120
	if testing.Short() {
		pairs = 12
	}
	for i := 0; i < pairs; i++ {
		model := harnessModels[i%len(harnessModels)]
		drv := harnessDrivers[(i/len(harnessModels))%len(harnessDrivers)]
		seed := int64(i)*31337 + 5
		label := fmt.Sprintf("pair %d (%v on %s)", i, model, drv.name)
		opts := ExecOptions{Model: model, ChunkElems: 256}

		baseEng := harnessEngine(t, drv, nil)
		baseRes, err := baseEng.Execute(buildHarnessPlan(baseEng, seed), opts)
		if err != nil {
			t.Fatalf("%s: manual run failed: %v", label, err)
		}

		autoEng := harnessEngine(t, drv, nil, WithAutoPlan())
		if !autoEng.AutoPlanEnabled() {
			t.Fatal("WithAutoPlan did not stick")
		}
		autoRes, err := autoEng.Execute(buildHarnessPlan(autoEng, seed), opts)
		if err != nil {
			t.Fatalf("%s: auto run failed: %v", label, err)
		}
		sameResults(t, label, baseRes, autoRes)
		checkMemBaseline(t, autoEng, label+" auto")

		if autoEng.CostCatalog().Len() == 0 {
			t.Errorf("%s: catalog empty after an auto-planned query", label)
		}
	}
}

// TestAutoPlanRehearsesShapeOnce: the engine's first query of a plan shape
// rehearses it, the repeat reads the catalog and rehearses nothing — the
// trace's autoplan notes say which happened.
func TestAutoPlanRehearsesShapeOnce(t *testing.T) {
	eng := harnessEngine(t, harnessDrivers[0], nil, WithAutoPlan())
	for run, want := range []int{1, 0} {
		rec := NewTraceRecorder()
		if _, err := eng.Execute(buildHarnessPlan(eng, 11), ExecOptions{Recorder: rec}); err != nil {
			t.Fatal(err)
		}
		var got int
		for _, s := range rec.internal().Spans() {
			if s.Kind == trace.KindAutoPlan && strings.HasPrefix(s.Label, "rehearse ") {
				got++
			}
		}
		if got != want {
			t.Errorf("run %d: %d rehearsal notes, want %d", run, got, want)
		}
	}
}

// TestAutoPlanConcurrent runs first and repeat queries of one shape from
// several goroutines on one auto-planning engine, while another goroutine
// swaps in a fresh catalog: every answer matches the manual run, whichever
// goroutine rehearsed. Run it under -race.
func TestAutoPlanConcurrent(t *testing.T) {
	drv := harnessDrivers[0]
	baseEng := harnessEngine(t, drv, nil)
	want, err := baseEng.Execute(buildHarnessPlan(baseEng, 11), ExecOptions{Model: Chunked, ChunkElems: 256})
	if err != nil {
		t.Fatal(err)
	}
	eng := harnessEngine(t, drv, nil, WithAutoPlan())
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	errs := make([]error, len(results))
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Execute(buildHarnessPlan(eng, 11), ExecOptions{})
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng.SeedCatalog(cost.New())
	}()
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		sameResults(t, fmt.Sprintf("concurrent auto query %d", i), want, res)
	}
	checkMemBaseline(t, eng, "concurrent auto")
}

// TestAutoPlanRejectsPlugDevice: an auto-planning engine needs a
// constructor per device to rehearse on, so it takes PlugMaker and refuses
// a lone instance, naming the way out.
func TestAutoPlanRejectsPlugDevice(t *testing.T) {
	eng := NewEngine(WithAutoPlan())
	_, err := eng.PlugDevice(simomp.New(&simhw.CoreI78700, nil))
	if err == nil || !strings.Contains(err.Error(), "PlugMaker") {
		t.Fatalf("PlugDevice on an auto-planning engine: got %v, want an error naming PlugMaker", err)
	}
	if _, err := eng.PlugMaker(func() device.Device { return simomp.New(&simhw.CoreI78700, nil) }); err != nil {
		t.Fatalf("PlugMaker on an auto-planning engine: %v", err)
	}
}

// TestDifferentialAutoPlanUnderFaults composes auto planning with the PR 2
// fault harness: a faulted auto-planned run must either match the
// fault-free manual baseline bit-for-bit or fail with one of the typed
// resilience errors — never a wrong answer — and device memory must return
// to baseline. Auto-planned queries travel the same retry/degrade/failover
// machinery; the re-plan restart is just one more attempt.
func TestDifferentialAutoPlanUnderFaults(t *testing.T) {
	pairs := 120
	if testing.Short() {
		pairs = 12
	}
	var matched, failedTyped, injected int
	for i := 0; i < pairs; i++ {
		model := harnessModels[i%len(harnessModels)]
		drv := harnessDrivers[(i/len(harnessModels))%len(harnessDrivers)]
		seed := int64(i)*7919 + 3 // same population as the fault harness
		label := fmt.Sprintf("pair %d (%v on %s)", i, model, drv.name)
		opts := ExecOptions{Model: model, ChunkElems: 256}

		baseEng := harnessEngine(t, drv, nil)
		baseRes, err := baseEng.Execute(buildHarnessPlan(baseEng, seed), opts)
		if err != nil {
			t.Fatalf("%s: baseline failed: %v", label, err)
		}

		faultEng := harnessEngine(t, drv, harnessFaultPlan(i, drv), WithAutoPlan())
		rec := NewTraceRecorder()
		recOpts := opts
		recOpts.Recorder = rec
		faultRes, err := faultEng.Execute(buildHarnessPlan(faultEng, seed), recOpts)
		switch {
		case err == nil:
			sameResults(t, label, baseRes, faultRes)
			matched++
			s := faultRes.Stats()
			if s.Retries > 0 || len(s.Events) > 0 {
				injected++
			}
			// Replan accounting must stay consistent with failover composed:
			// the Replans counter, the replan event log entries and the
			// replan trace spans are three views of the same restarts.
			var replanEvents int
			for _, ev := range s.Events {
				if ev.Kind == EventReplan {
					replanEvents++
				}
			}
			var replanSpans int
			for _, sp := range rec.internal().Spans() {
				if sp.Kind == trace.KindReplan {
					replanSpans++
				}
			}
			if s.Replans != replanEvents || s.Replans != replanSpans {
				t.Errorf("%s: replan accounting diverged: Stats.Replans=%d, events=%d, spans=%d",
					label, s.Replans, replanEvents, replanSpans)
			}
			// Drift is the final attempt's per-pipeline record: one sample
			// per executed pipeline even after retries and failovers.
			if len(s.Drift) != s.Pipelines {
				t.Errorf("%s: drift samples %d != pipelines %d after faults",
					label, len(s.Drift), s.Pipelines)
			}
		case harnessTypedError(err):
			failedTyped++
			injected++
		default:
			t.Errorf("%s: untyped error under faults: %v", label, err)
		}
		checkMemBaseline(t, faultEng, label+" faulted+auto")
	}
	t.Logf("%d auto runs matched the manual baseline, %d failed typed, %d saw faults",
		matched, failedTyped, injected)
	if matched == 0 {
		t.Error("no faulted auto run ever completed")
	}
	// Unlike the fixed-placement harnesses, the auto planner may move a
	// query off the faulted device — so many schedules never fire. The
	// harness still has to demonstrate faults reaching auto-planned queries
	// somewhere: retried, recovered, or surfaced typed.
	if !testing.Short() && injected == 0 {
		t.Error("no faulted auto run ever saw a fault; the schedules are not injecting")
	}
}

// TestReplanForcedBitIdentical property-checks the re-plan machinery
// itself: for random plans, models, drivers and forced chunk switches, a
// run whose re-plan hook unconditionally fires at the first pipeline
// boundary must match the hook-free baseline bit-for-bit. The hook decides
// only the restart's chunk size; the restart path re-runs from the
// host-resident scans, so correctness cannot depend on what the hook picks.
func TestReplanForcedBitIdentical(t *testing.T) {
	var fired int
	f := func(seedSel uint16, modelSel, drvSel, chunkSel, forcedSel uint8) bool {
		model := harnessModels[int(modelSel)%len(harnessModels)]
		drv := harnessDrivers[int(drvSel)%len(harnessDrivers)]
		seed := int64(seedSel)
		chunk := []int{64, 128, 256, 512}[int(chunkSel)%4]
		forced := 64 + int(forcedSel)*64

		baseEng := harnessEngine(t, drv, nil)
		baseG := buildHarnessPlan(baseEng, seed).graph()
		baseRes, err := exec.Run(baseEng.rt, baseG, exec.Options{
			Model: exec.Model(model), ChunkElems: chunk,
		})
		if err != nil {
			t.Logf("baseline failed: %v", err)
			return false
		}

		replanEng := harnessEngine(t, drv, nil)
		replanG := buildHarnessPlan(replanEng, seed).graph()
		replanRes, err := exec.Run(replanEng.rt, replanG, exec.Options{
			Model: exec.Model(model), ChunkElems: chunk,
			Replan: func(o exec.ReplanObservation) (int, bool) { return forced, true },
		})
		if err != nil {
			t.Logf("forced-replan run failed: %v", err)
			return false
		}
		fired += replanRes.Stats.Replans
		if replanRes.Stats.Replans > 1 {
			t.Logf("replans %d > 1: the one-replan bound broke", replanRes.Stats.Replans)
			return false
		}
		sameResults(t, "forced replan", newResult(baseRes), newResult(replanRes))
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// Single-pipeline plans never reach a pipeline boundary, but the
	// population mixes in two-pipeline semi-join plans; if no run ever
	// restarted, the property is vacuous.
	if fired == 0 {
		t.Error("no run ever re-planned; the hook never fired")
	}
	t.Logf("%d forced re-plans taken", fired)
}

// TestStatsDrift pins the drift satellite: Stats exposes the per-pipeline
// estimated-vs-observed cardinalities the re-planner acts on, one sample
// per executed pipeline, and scan-fed pipelines (where the optimizer's
// estimate is exact) report zero drift.
func TestStatsDrift(t *testing.T) {
	drv := harnessDrivers[0]
	eng := harnessEngine(t, drv, nil)
	// Seed 1 builds a non-empty plan (2048 rows); any seed works as long as
	// the plan executes.
	res, err := eng.Execute(buildHarnessPlan(eng, 1), ExecOptions{Model: Chunked, ChunkElems: 256})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	s := res.Stats()
	if len(s.Drift) != s.Pipelines {
		t.Fatalf("drift samples %d != pipelines %d", len(s.Drift), s.Pipelines)
	}
	for i, d := range s.Drift {
		if d.ActualRows < 0 || d.EstRows < 0 {
			t.Errorf("drift[%d]: negative cardinality %+v", i, d)
		}
	}
	// The first pipeline reads scans directly: estimate and observation are
	// both the scan length.
	if d := s.Drift[0]; d.EstRows != d.ActualRows {
		t.Errorf("scan-fed pipeline drifted: est %d actual %d", d.EstRows, d.ActualRows)
	}
	if s.Replans != 0 {
		t.Errorf("manual run re-planned %d times without a hook", s.Replans)
	}
}
