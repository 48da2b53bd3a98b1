package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/kernels"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if got, err := percentile(samples, 0.95); err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 with ten samples beyond it", got, err)
	}
	if _, err := percentile(samples[:199], 0.95); err == nil {
		t.Error("p95 of 199 samples leaves nine beyond it and must be refused")
	}
	if got, err := percentile(samples[:20], 0.50); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
	if _, err := percentile(nil, 0.50); err == nil {
		t.Error("percentile of no samples must be refused")
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesFollowPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	op := span{start: 0, end: 100}
	children := []span{
		{start: 60, end: 70},
		{start: 20, end: 50}, // overlaps the next
		{start: 10, end: 30},
		{start: 25, end: 45},  // inside the union already
		{start: 90, end: 120}, // runs past the parent
	}
	// Covered: [10,50) ∪ [60,70) ∪ [90,100) = 60.
	if got := selfNS(op, children); got != 40 {
		t.Errorf("self time = %d, want 40", got)
	}
	if got := selfNS(op, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestEveryKernelHasOneFamily(t *testing.T) {
	for _, name := range kernels.NewRegistry().Names() {
		if fams := familiesOf(name); len(fams) != 1 {
			t.Errorf("kernel %s matches families %v, want exactly one", name, fams)
		}
	}
}

// The timing device must be invisible to the engine: the same answers, bit
// for bit, and the same virtual time as the bare driver.
func TestTimingDeviceIsTransparent(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		ds, _, err := w.generate(7, true)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := w.newTarget(ds, w.observed, plugStock)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(1)
		tr.record(true)
		timed, err := w.newTarget(ds, w.observed, plugTimed(tr))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.queries {
			want, err := bare.eng.Query(bare.cat, bare.dev, q.sql, bare.options())
			if err != nil {
				t.Fatalf("%s %s bare: %v", w.name, q.name, err)
			}
			got, err := timed.eng.Query(timed.cat, timed.dev, q.sql, timed.options())
			if err != nil {
				t.Fatalf("%s %s timed: %v", w.name, q.name, err)
			}
			for _, col := range want.Columns() {
				if !reflect.DeepEqual(got.Int64(col), want.Int64(col)) {
					t.Errorf("%s %s: column %s differs through the timing device", w.name, q.name, col)
				}
			}
			gs, ws := got.Stats(), want.Stats()
			if gs.Elapsed != ws.Elapsed || gs.KernelTime != ws.KernelTime ||
				gs.TransferTime != ws.TransferTime || gs.OverheadTime != ws.OverheadTime {
				t.Errorf("%s %s: virtual time moved through the timing device: %v/%v/%v/%v, bare %v/%v/%v/%v",
					w.name, q.name, gs.Elapsed, gs.KernelTime, gs.TransferTime, gs.OverheadTime,
					ws.Elapsed, ws.KernelTime, ws.TransferTime, ws.OverheadTime)
			}
			if gs.Launches != ws.Launches || gs.H2DBytes != ws.H2DBytes {
				t.Errorf("%s %s: launches/H2D bytes %d/%d, bare %d/%d", w.name, q.name,
					gs.Launches, gs.H2DBytes, ws.Launches, ws.H2DBytes)
			}
		}
		fold := foldSpans(tr)
		if fold.groups["execute"].calls == 0 || fold.groups["execute"].bytes == 0 {
			t.Errorf("%s: the timing device recorded no sized Execute spans", w.name)
		}
	}
}

// With a buffer pool the timing device must forward the optional
// interfaces, or pooled columns are accounted as query-held.
func TestTimingDeviceForwardsPoolAccounting(t *testing.T) {
	w, err := findWorkload("mix_warm_fused_2c")
	if err != nil {
		t.Fatal(err)
	}
	ds, _, err := w.generate(7, true)
	if err != nil {
		t.Fatal(err)
	}
	timed, err := w.newTarget(ds, false, plugTimed(newTracer(w.numClients())))
	if err != nil {
		t.Fatal(err)
	}
	if s := drive(timed, extent{ops: 1}, nil); s.failed > 0 {
		t.Fatalf("%d warm-up ops failed", s.failed)
	}
	dev := timed.eng.Runtime().Devices()[0]
	if _, ok := dev.(*timingDevice); !ok {
		t.Fatalf("plugged device is %T, want the timing device", dev)
	}
	if pooled := dev.MemStats().PooledUsed; pooled == 0 {
		t.Error("no bytes marked pooled: MarkPooled is not forwarded")
	}
	if err := dev.(device.MemChecker).CheckMemAccounting(); err != nil {
		t.Errorf("CheckMemAccounting: %v", err)
	}
	if cached := timed.eng.CacheStats().CachedBytes; cached != dev.MemStats().PooledUsed {
		t.Errorf("pool holds %d bytes, device accounts %d as pooled", cached, dev.MemStats().PooledUsed)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_wall_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, within},
		{"slower", lower, steady, []float64{115, 116, 114, 115, 115}, regressed},
		{"faster", lower, steady, []float64{50, 51, 49, 50, 50}, within},
		{"noisy", lower, steady, []float64{80, 120, 100, 70, 130}, unresolved},
		{"throughput down", higher, steady, []float64{85, 86, 84, 85, 85}, regressed},
		{"throughput up", higher, steady, []float64{115, 116, 114, 115, 115}, within},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// The smoke run drives all four workloads through both kinds of run on a
// sixteenth of the data, and holds what they report to BENCHMARK.json.
func TestQuickSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		benchSpec
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}

	for i := range workloads {
		w := &workloads[i]
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q with another why", i, spec.Workloads[i].Name, w.name)
		}
		cfg := &runConfig{w: w, seed: 7, quick: true}
		for _, kind := range []struct {
			name string
			run  func(*runConfig) (*report, error)
			want []metricSpec
			skip string
		}{
			// Twenty ops cannot carry a p95.
			{"end to end", runEndToEnd, spec.EndToEnd, "op_wall_ms_p95"},
			{"traced", runTraced, spec.PerLayer, ""},
		} {
			rep, err := kind.run(cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, kind.name, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 20 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d %v", w.name, kind.name, rep.Correct, rep.Attempted, rep.Failed, rep.notes)
			}
			want := make(map[string]string)
			for _, m := range kind.want {
				if m.Name != kind.skip {
					want[m.Name] = m.Unit
				}
			}
			got := make(map[string]string)
			for name, m := range rep.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: metrics and units differ from BENCHMARK.json:\n got %v\nwant %v", w.name, kind.name, got, want)
			}
		}
	}
}
