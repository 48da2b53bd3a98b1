package experiments

import (
	"fmt"
	"io"

	"github.com/adamant-db/adamant/internal/bufpool"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/vclock"
)

// CacheWarm measures the device buffer pool on a repeated workload: Q6 at
// SF 100 on CUDA, run three times on the same runtime with the pool
// enabled. The first run is cold — every base column ships host-to-device
// and lands in the pool; the later runs are warm — base columns resolve to
// cached device buffers and the H2D traffic drops to the result path. The
// hot-vs-cold gap is the same effect Figure 11 (right) reports for the
// HeavyDB baseline's "w transfer" vs "w/o transfer" columns, reproduced
// here on the ADAMANT stack itself.
func CacheWarm(cfg Config, w io.Writer) error {
	const sf = 100
	ds, err := cfg.dataset(sf)
	if err != nil {
		return err
	}

	models := []struct {
		label string
		model exec.Model
	}{
		{"oaat", exec.OperatorAtATime},
		{"chunked", exec.Chunked},
		{"4p-pipelined", exec.FourPhasePipelined},
	}

	cold := NewTable("Cache cold: first Q6 run, pool empty (virtual seconds)",
		"query", "SF", "model", "elapsed s", "H2D MiB")
	warm := NewTable("Cache warm: third Q6 run, base columns pooled (virtual seconds)",
		"query", "SF", "model", "elapsed s", "H2D MiB", "speedup vs cold", "hit %")
	cold.Note = fmt.Sprintf("data scaled by %.5f; chunk %d values; 1 GiB pool, cost-aware eviction", cfg.ratio(), cfg.chunkElems())

	for _, m := range models {
		r, err := newRig(simhw.Setup1)
		if err != nil {
			return err
		}
		pool := bufpool.New(bufpool.Config{
			Capacity: 1 << 30,
			Policy:   bufpool.CostAware,
			Device:   r.rt.Device,
		})

		var elapsed [3]vclock.Duration
		var h2d [3]int64
		for i := range elapsed {
			g, err := tpch.BuildQuery("Q6", ds, r.cuda)
			if err != nil {
				return err
			}
			res, err := exec.RunContext(cfg.Context(), r.rt, g, exec.Options{
				Model: m.model, ChunkElems: cfg.chunkElems(), Pool: pool,
			})
			if err != nil {
				return err
			}
			elapsed[i] = res.Stats.Elapsed
			h2d[i] = res.Stats.H2DBytes
		}
		st := pool.Stats()
		cold.Add("Q6", sf, m.label, seconds(elapsed[0]), mib(h2d[0]))
		warm.Add("Q6", sf, m.label, seconds(elapsed[2]), mib(h2d[2]),
			ratioStr(elapsed[0], elapsed[2]), fmt.Sprintf("%.0f%%", 100*st.HitRatio()))
	}

	return report(w, cold, warm)
}

// mib renders a byte count in MiB for a table cell.
func mib(b int64) string {
	return fmt.Sprintf("%.1f", float64(b)/(1<<20))
}
