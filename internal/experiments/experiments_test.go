package experiments

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/heavysim"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/vclock"
)

var quickCfg = Config{Quick: true, Seed: 7}

// update rewrites the quick-mode golden reports instead of diffing against
// them: go test ./internal/experiments -run TestAllGeneratorsRun -update
var update = flag.Bool("update", false, "rewrite testdata/quick golden reports")

// TestAllGeneratorsRun runs every experiment in quick mode, checks the
// paper's qualitative claims over its report (claims_test.go), and compares
// the report byte for byte with testdata/quick/<name>.txt. Every quick table
// is virtual time over seeded data, so any difference is a moved cell. The
// claims run before -update rewrites a golden, so a re-pin cannot invert a
// finding.
func TestAllGeneratorsRun(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			gen, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := gen(quickCfg, &sb); err != nil {
				t.Fatal(err)
			}
			for _, err := range checkClaims(name, parseReport(sb.String())) {
				t.Error(err)
			}
			golden := filepath.Join("testdata", "quick", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got := sb.String(); got != string(want) {
				t.Errorf("%s: quick report differs from %s at %s", name, golden, diffLines(got, string(want)))
			}
		})
	}
}

// diffLines reports the first line where got and want diverge.
func diffLines(got, want string) string {
	g := strings.Split(got, "\n")
	w := strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		gl, wl := "<EOF>", "<EOF>"
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl, wl)
		}
	}
	return "contents equal"
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	if (Config{}).ratio() != 1.0/64 {
		t.Error("full ratio default")
	}
	if (Config{Quick: true}).ratio() != 1.0/1024 {
		t.Error("quick ratio default")
	}
	if (Config{Ratio: 0.5}).ratio() != 0.5 {
		t.Error("explicit ratio ignored")
	}
	if c := (Config{}).chunkElems(); c%64 != 0 || c <= 0 {
		t.Errorf("chunk = %d", c)
	}
}

func TestTableFormatting(t *testing.T) {
	tb := NewTable("demo", "a", "bb")
	tb.Add(1, "xyz")
	tb.Note = "note"
	var sb strings.Builder
	if _, err := tb.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== demo ==", "note", "a", "bb", "xyz"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestFig11Shapes verifies the headline execution-model relations of
// Figure 11 directly, at a slightly larger scale than the smoke run:
//   - CUDA 4-phase beats chunked on every query, most on Q6;
//   - OpenCL's 4-phase on Q4 is slower than its chunked run (the paper's
//     pinned-memory pathology);
//   - OpenCL's 4-phase on Q6 is faster than its chunked run;
//   - CUDA beats OpenCL throughout.
func TestFig11Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration shapes need the larger profile")
	}
	cfg := Config{Ratio: 1.0 / 200, Seed: 7}
	ds, err := cfg.dataset(100)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRig(simhw.Setup1)
	if err != nil {
		t.Fatal(err)
	}

	run := func(q string, dev int, model exec.Model) vclock.Duration {
		t.Helper()
		var id = r.cuda
		if dev == 1 {
			id = r.oclGPU
		}
		g, err := tpch.BuildQuery(q, ds, id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.Run(r.rt, g, exec.Options{Model: model, ChunkElems: cfg.chunkElems()})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Elapsed
	}

	gains := map[string]float64{}
	for _, q := range []string{"Q3", "Q4", "Q6"} {
		chunked := run(q, 0, exec.Chunked)
		fourPP := run(q, 0, exec.FourPhasePipelined)
		if fourPP >= chunked {
			t.Errorf("CUDA %s: 4-phase (%v) should beat chunked (%v)", q, fourPP, chunked)
		}
		gains[q] = float64(chunked) / float64(fourPP)

		oclChunked := run(q, 1, exec.Chunked)
		if chunked >= oclChunked {
			t.Errorf("%s: CUDA chunked (%v) should beat OpenCL (%v)", q, chunked, oclChunked)
		}
	}
	if gains["Q6"] <= gains["Q3"] {
		t.Errorf("Q6 gain (%.2f) should exceed Q3's (%.2f)", gains["Q6"], gains["Q3"])
	}

	// The OpenCL inversions.
	q4Chunked := run("Q4", 1, exec.Chunked)
	q4FourPP := run("Q4", 1, exec.FourPhasePipelined)
	if q4FourPP <= q4Chunked {
		t.Errorf("OpenCL Q4: 4-phase (%v) should LOSE to chunked (%v)", q4FourPP, q4Chunked)
	}
	q6Chunked := run("Q6", 1, exec.Chunked)
	q6FourPP := run("Q6", 1, exec.FourPhasePipelined)
	if q6FourPP >= q6Chunked {
		t.Errorf("OpenCL Q6: 4-phase (%v) should beat chunked (%v)", q6FourPP, q6Chunked)
	}
}

// TestHeavyDBShapes verifies the baseline relations: hot is within ~2x of
// ADAMANT chunked, cold costs more than hot, ADAMANT's 4-phase beats both,
// and Q3 aborts.
func TestHeavyDBShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration shapes need the larger profile")
	}
	cfg := Config{Ratio: 1.0 / 200, Seed: 7}
	ds, err := cfg.dataset(100)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRig(simhw.Setup1)
	if err != nil {
		t.Fatal(err)
	}
	db := heavysim.New(heavysim.Config{GPU: &simhw.RTX2080Ti})

	if _, err := db.Run("Q3", ds); !errors.Is(err, heavysim.ErrOutOfMemory) {
		t.Errorf("Q3 should abort: %v", err)
	}

	for _, q := range []string{"Q4", "Q6"} {
		hres, err := db.Run(q, ds)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		g, err := tpch.BuildQuery(q, ds, r.cuda)
		if err != nil {
			t.Fatal(err)
		}
		chunked, err := exec.Run(r.rt, g, exec.Options{Model: exec.Chunked, ChunkElems: cfg.chunkElems()})
		if err != nil {
			t.Fatal(err)
		}
		g, _ = tpch.BuildQuery(q, ds, r.cuda)
		fourPP, err := exec.Run(r.rt, g, exec.Options{Model: exec.FourPhasePipelined, ChunkElems: cfg.chunkElems()})
		if err != nil {
			t.Fatal(err)
		}

		ratio := float64(hres.Elapsed) / float64(chunked.Stats.Elapsed)
		if ratio < 0.5 || ratio > 3 {
			t.Errorf("%s: HeavyDB hot (%v) should be comparable to chunked (%v)", q, hres.Elapsed, chunked.Stats.Elapsed)
		}
		if vclock.Duration(fourPP.Stats.Elapsed) >= hres.Elapsed {
			t.Errorf("%s: ADAMANT 4-phase (%v) should beat HeavyDB hot (%v)", q, fourPP.Stats.Elapsed, hres.Elapsed)
		}
		if hres.ColdElapsed <= hres.Elapsed {
			t.Errorf("%s: cold (%v) should exceed hot (%v)", q, hres.ColdElapsed, hres.Elapsed)
		}
	}
}
