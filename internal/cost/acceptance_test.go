package cost

import (
	"testing"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/driver/simomp"
	"github.com/adamant-db/adamant/internal/driver/simopencl"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/vclock"
)

// TestAutoMatchesBestManualCell is the acceptance sweep: for Q1, Q3, Q4
// and Q6 over the full four-driver rig, run every (driver, model) cell by
// hand, then let the planner choose twice on one catalog. The cold plan
// rehearses every cell on fresh instances, so it must land within 2% of
// the best manual cell; the warm plan reads the rates back, rehearses
// nothing, and must land within 5%.
func TestAutoMatchesBestManualCell(t *testing.T) {
	ds, err := tpch.Generate(tpch.Config{SF: 1, Ratio: 1.0 / 1024, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 2048
	for _, q := range []string{"Q1", "Q3", "Q4", "Q6"} {
		rt, cands := testRig(t,
			func() device.Device { return simcuda.New(&simhw.RTX2080Ti, nil) },
			func() device.Device { return simopencl.NewGPU(&simhw.RTX2080Ti, nil) },
			func() device.Device { return simopencl.NewCPU(&simhw.CoreI78700, nil) },
			func() device.Device { return simomp.New(&simhw.CoreI78700, nil) },
		)
		var best vclock.Duration
		for _, c := range cands {
			for _, m := range exec.Models() {
				g, err := tpch.BuildQuery(q, ds, c.ID)
				if err != nil {
					t.Fatal(err)
				}
				res, err := exec.Run(rt, g, exec.Options{Model: m, ChunkElems: chunk})
				if err != nil {
					t.Fatalf("%s manual %v on %v: %v", q, m, c.ID, err)
				}
				if best == 0 || res.Stats.Elapsed < best {
					best = res.Stats.Elapsed
				}
			}
		}

		cat := New()
		for _, phase := range []struct {
			name       string
			bound      float64
			rehearsals int
		}{{"cold", 1.02, len(cands) * len(exec.Models())}, {"warm", 1.05, 0}} {
			g, err := tpch.BuildQuery(q, ds, cands[0].ID)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewPlanner(cat).Plan(g, rt, PlanOptions{Candidates: cands, MaxChunk: chunk})
			if err != nil {
				t.Fatal(err)
			}
			res, err := exec.Run(rt, g, exec.Options{
				Model: dec.Model, ChunkElems: dec.ChunkElems,
				PlanNotes: dec.Notes, Replan: dec.Replan(),
			})
			if err != nil {
				t.Fatalf("%s %s auto run (%v, chunk %d): %v", q, phase.name, dec.Model, dec.ChunkElems, err)
			}
			cat.ObserveQuery(dec.Model.String(), dec.Driver, dec.Shape, dec.Rows, res.Stats.Elapsed)
			t.Logf("%s %s: %v (%v on %s, chunk %d, %d rehearsals); best manual %v",
				q, phase.name, res.Stats.Elapsed, dec.Model, dec.Driver, dec.ChunkElems, dec.Rehearsals, best)
			if float64(res.Stats.Elapsed) > phase.bound*float64(best) {
				t.Errorf("%s: %s auto %v exceeds %.2fx the best manual %v", q, phase.name, res.Stats.Elapsed, phase.bound, best)
			}
			if dec.Rehearsals != phase.rehearsals {
				t.Errorf("%s: %s plan rehearsed %d cells, want %d", q, phase.name, dec.Rehearsals, phase.rehearsals)
			}
		}
	}
}
