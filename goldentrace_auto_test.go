package adamant_test

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"os"

	"github.com/adamant-db/adamant/internal/cost"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/driver/simomp"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/trace"
)

// goldenAutoTrace runs one query end-to-end in auto mode on a two-device
// rig — a cold plan rehearsed on fresh instances, execution with the
// decision's notes and re-plan hook — and returns the rendered trace, the
// raw spans, and the decision itself.
func goldenAutoTrace(t *testing.T, query string, replan exec.ReplanFunc) (string, []trace.Span, *cost.Decision) {
	t.Helper()
	ds, err := tpch.Generate(tpch.Config{SF: 1, Ratio: 1.0 / 4096, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rt := hub.NewRuntime()
	var cands []cost.Candidate
	for _, mk := range []func() device.Device{
		func() device.Device { return simcuda.New(&simhw.RTX2080Ti, nil) },
		func() device.Device { return simomp.New(&simhw.CoreI78700, nil) },
	} {
		id, err := rt.Register(mk())
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, cost.Candidate{ID: id, New: mk})
	}
	g, err := tpch.BuildQuery(query, ds, cands[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := cost.NewPlanner(cost.New()).Plan(g, rt, cost.PlanOptions{Candidates: cands, MaxChunk: 512})
	if err != nil {
		t.Fatal(err)
	}
	pipelines, err := g.BuildPipelines()
	if err != nil {
		t.Fatal(err)
	}
	if replan == nil {
		replan = dec.Replan()
	}
	rec := trace.NewRecorder()
	res, err := exec.Run(rt, g, exec.Options{
		Model: dec.Model, ChunkElems: dec.ChunkElems,
		PlanNotes: dec.Notes, Replan: replan, Recorder: rec,
	})
	if err != nil {
		t.Fatalf("%s auto: %v", query, err)
	}
	var b strings.Builder
	exec.WriteAnalyze(&b, g, pipelines, res.Stats, rec.Spans())
	b.WriteString("\n")
	trace.WriteSummary(&b, rec.Spans())
	return b.String(), rec.Spans(), dec
}

var replanLabel = regexp.MustCompile(`^chunk (\d+)->(\d+): `)

// checkReplanSpans enforces the re-plan span invariant: every replan span
// names a from->to chunk transition, and the transition actually changes
// the chunk — a replan that restarts into the identical configuration is a
// wasted attempt and must never be recorded.
func checkReplanSpans(t *testing.T, label string, spans []trace.Span) int {
	t.Helper()
	var n int
	for _, s := range spans {
		if s.Kind != trace.KindReplan {
			continue
		}
		n++
		m := replanLabel.FindStringSubmatch(s.Label)
		if m == nil {
			t.Errorf("%s: replan span label %q does not name a chunk transition", label, s.Label)
			continue
		}
		if m[1] == m[2] {
			t.Errorf("%s: replan span %q restarts into the same chunk", label, s.Label)
		}
	}
	return n
}

// TestGoldenTraceAuto pins the full auto-mode trace of Q6 and Q3 on a
// GPU+CPU rig: the rehearsals fill the catalog, the planner's decision
// spans land in the trace as autoplan annotations, and the whole rendering
// — rehearsal, device, model, chunk, spans, summary — is byte-stable
// across runs.
func TestGoldenTraceAuto(t *testing.T) {
	for _, query := range []string{"Q3", "Q6"} {
		name := query + "-auto-plan"
		t.Run(name, func(t *testing.T) {
			got, spans, dec := goldenAutoTrace(t, query, nil)
			if again, _, _ := goldenAutoTrace(t, query, nil); again != got {
				t.Fatalf("auto trace of %s not deterministic:\n%s", query, diffLines(again, got))
			}

			// Every planner note surfaces as exactly one autoplan span, and
			// the summary renders them.
			var autoplan int
			for _, s := range spans {
				if s.Kind == trace.KindAutoPlan {
					autoplan++
				}
			}
			if autoplan != len(dec.Notes) {
				t.Errorf("%d autoplan spans for %d decision notes", autoplan, len(dec.Notes))
			}
			if !strings.Contains(got, "autoplan:") {
				t.Error("rendered trace has no autoplan: lines")
			}
			checkReplanSpans(t, name, spans)

			path := filepath.Join("testdata", "traces", name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run: go test -run TestGoldenTraceAuto -update .): %v", err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch for %s (re-bless with -update if intended):\n%s",
					path, diffLines(got, string(want)))
			}
		})
	}
}

// TestReplanSpanInvariant forces the hook to fire so the invariant check
// has a real replan span to bite on: the span must appear, name the
// transition, and appear at most once (the one-replan bound).
func TestReplanSpanInvariant(t *testing.T) {
	forced := func(o exec.ReplanObservation) (int, bool) {
		if o.ChunkElems == 64 {
			return 0, false
		}
		return 64, true
	}
	_, spans, _ := goldenAutoTrace(t, "Q3", forced)
	n := checkReplanSpans(t, "forced", spans)
	if n == 0 {
		t.Fatal("forced hook produced no replan span")
	}
	if n > 1 {
		t.Fatalf("%d replan spans; the one-replan bound broke", n)
	}
}
