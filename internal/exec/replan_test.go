package exec_test

import (
	"reflect"
	"testing"

	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/telemetry"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/trace"
)

// TestReplanRestart drives the mid-query re-plan path directly: on a
// multi-pipeline query a hook that fires at the first boundary must
// restart the attempt into the new chunk size, record the event, the
// span and the telemetry emission, and change nothing about the answer.
func TestReplanRestart(t *testing.T) {
	ds := testDataset(t)
	rt, dev := gpuRuntime(t)

	baseG, err := tpch.BuildQuery("Q3", ds, dev)
	if err != nil {
		t.Fatal(err)
	}
	base, err := exec.Run(rt, baseG, exec.Options{Model: exec.Chunked, ChunkElems: 512})
	if err != nil {
		t.Fatal(err)
	}

	g, err := tpch.BuildQuery("Q3", ds, dev)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	sink := telemetry.NewEventSink(16)
	var observed []exec.ReplanObservation
	res, err := exec.Run(rt, g, exec.Options{
		Model: exec.Chunked, ChunkElems: 512, Recorder: rec, Events: sink,
		Replan: func(o exec.ReplanObservation) (int, bool) {
			observed = append(observed, o)
			if o.ChunkElems == 128 {
				return 0, false
			}
			return 100, true // unaligned on purpose: the executor rounds to 128
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Columns, res.Columns) {
		t.Error("re-planned run changed the result")
	}
	if res.Stats.Replans != 1 {
		t.Fatalf("replans = %d, want 1", res.Stats.Replans)
	}
	if len(observed) == 0 {
		t.Fatal("hook never observed a boundary")
	}
	if o := observed[0]; o.ChunkElems != 512 || o.Pipeline == 0 {
		t.Errorf("first observation %+v: want chunk 512 at a non-first pipeline", o)
	}

	var events, spans int
	for _, e := range res.Stats.Events {
		if e.Kind == exec.EventReplan {
			events++
			if e.ChunkFrom != 512 || e.ChunkTo != 128 {
				t.Errorf("replan event %d->%d, want 512->128 (64-aligned)", e.ChunkFrom, e.ChunkTo)
			}
		}
	}
	for _, s := range rec.Spans() {
		if s.Kind == trace.KindReplan {
			spans++
		}
	}
	if events != 1 || spans != 1 {
		t.Errorf("%d replan events, %d replan spans; want 1 and 1", events, spans)
	}
	if sink.Total(telemetry.EventReplan) != 1 {
		t.Errorf("telemetry EventReplan total = %d, want 1", sink.Total(telemetry.EventReplan))
	}

	// Drift samples cover every pipeline even on the restarted attempt.
	if len(res.Stats.Drift) != res.Stats.Pipelines {
		t.Errorf("drift samples %d != pipelines %d", len(res.Stats.Drift), res.Stats.Pipelines)
	}
}

// TestReplanDeclined covers the hook's two refusal shapes — ok=false and
// a proposal equal to the current chunk — neither of which may restart.
func TestReplanDeclined(t *testing.T) {
	ds := testDataset(t)
	rt, dev := gpuRuntime(t)
	for name, hook := range map[string]exec.ReplanFunc{
		"declines": func(o exec.ReplanObservation) (int, bool) { return 0, false },
		"same":     func(o exec.ReplanObservation) (int, bool) { return o.ChunkElems, true },
	} {
		g, err := tpch.BuildQuery("Q3", ds, dev)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.Run(rt, g, exec.Options{Model: exec.Chunked, ChunkElems: 512, Replan: hook})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Replans != 0 {
			t.Errorf("%s: replans = %d, want 0", name, res.Stats.Replans)
		}
	}
}
