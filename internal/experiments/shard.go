package experiments

import (
	"fmt"
	"io"

	"github.com/adamant-db/adamant/internal/bufpool"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/shard"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/vclock"
)

// shardFleet builds n single-GPU shards, each its own runtime with an
// optional buffer pool; brake, when above 1, slows the last shard's GPU
// that many times over.
func shardFleet(n int, pooled bool, brake float64) ([]shard.Shard, error) {
	shards := make([]shard.Shard, n)
	for i := range shards {
		rt := hub.NewRuntime()
		spec := &simhw.Setup1.GPU
		if brake > 1 && i == n-1 {
			spec = spec.Slowed(brake)
		}
		if _, err := rt.Register(simcuda.New(spec, nil)); err != nil {
			return nil, err
		}
		var pool *bufpool.Manager
		if pooled {
			pool = bufpool.New(bufpool.Config{
				Capacity: 1 << 30,
				Policy:   bufpool.CostAware,
				Device:   rt.Device,
			})
		}
		shards[i] = shard.Shard{Name: fmt.Sprintf("shard%d", i), RT: rt, Pool: pool}
	}
	return shards, nil
}

// ShardScale measures scatter/gather scale-out: Q6 at SF 100 over fleets
// of 1, 2, 4 and 8 runtime shards, cold (pools empty) and warm (base
// columns pooled per shard after two priming runs). Virtual elapsed time
// is the max over partitions, so throughput grows with the fleet; the
// straggler phase then brakes one shard 16-fold and shows a hedged
// duplicate bounding the virtual tail the straggler would otherwise set.
func ShardScale(cfg Config, w io.Writer) error {
	const sf = 100
	ds, err := cfg.dataset(sf)
	if err != nil {
		return err
	}
	rows := ds.Lineitem.Rows()

	cold := NewTable("Shard scale-out cold: first Q6 run per fleet, pools empty (virtual seconds)",
		"query", "SF", "shards", "elapsed s", "speedup vs 1", "Mrows/s")
	warm := NewTable("Shard scale-out warm: third Q6 run, base columns pooled per shard",
		"query", "SF", "shards", "elapsed s", "speedup vs 1", "Mrows/s")
	cold.Note = fmt.Sprintf("data scaled by %.5f; chunk %d values; partitions merge exactly (SUM re-aggregated)",
		cfg.ratio(), cfg.chunkElems())

	var coldBase, warmBase vclock.Duration
	for _, n := range []int{1, 2, 4, 8} {
		shards, err := shardFleet(n, true, 0)
		if err != nil {
			return err
		}
		coord, err := shard.New(shard.Config{Shards: shards})
		if err != nil {
			return err
		}
		var elapsed [3]vclock.Duration
		for i := range elapsed {
			g, err := tpch.BuildQuery("Q6", ds, 0)
			if err != nil {
				return err
			}
			res, scattered, err := coord.Run(cfg.Context(), g, exec.Options{
				Model: exec.Chunked, ChunkElems: cfg.chunkElems(),
			}, 0)
			if err != nil {
				return err
			}
			if !scattered {
				return fmt.Errorf("experiments: scatter planner declined Q6")
			}
			elapsed[i] = res.Stats.Elapsed
		}
		if n == 1 {
			coldBase, warmBase = elapsed[0], elapsed[2]
		}
		cold.Add("Q6", sf, n, seconds(elapsed[0]), ratioStr(coldBase, elapsed[0]), mops(rows, elapsed[0]))
		warm.Add("Q6", sf, n, seconds(elapsed[2]), ratioStr(warmBase, elapsed[2]), mops(rows, elapsed[2]))
	}
	if err := report(w, cold, warm); err != nil {
		return err
	}

	// Straggler cell: 4 shards, the last one's GPU 16x slower in compute,
	// launch and every link (OAAT Q6 is transfer-bound, so a compute-only
	// brake would not make it straggle). Unhedged, the query's elapsed is
	// the straggler's; hedged, the duplicate on the shard that frees up
	// first finishes earlier. The cell runs OAAT on a 16x smaller slice to
	// stay cheap.
	sds, err := tpch.Generate(tpch.Config{SF: sf, Ratio: cfg.ratio() / 16, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	strag := NewTable("Shard straggler: 4 shards, one braked 16x (virtual milliseconds)",
		"query", "mode", "elapsed ms", "hedge wins")
	strag.Note = "hedging duplicates the straggling partition in virtual time; host wall time grows, since duplicates run after the primaries"
	for _, mode := range []struct {
		label string
		hedge shard.HedgePolicy
	}{
		{"unhedged", shard.HedgePolicy{}},
		{"hedged", shard.HedgePolicy{Enabled: true}},
	} {
		shards, err := shardFleet(4, false, 16)
		if err != nil {
			return err
		}
		coord, err := shard.New(shard.Config{Shards: shards, Hedge: mode.hedge})
		if err != nil {
			return err
		}
		g, err := tpch.BuildQuery("Q6", sds, 0)
		if err != nil {
			return err
		}
		res, scattered, err := coord.Run(cfg.Context(), g, exec.Options{
			Model: exec.OperatorAtATime,
		}, 0)
		if err != nil {
			return err
		}
		if !scattered {
			return fmt.Errorf("experiments: scatter planner declined Q6")
		}
		var wins int
		for _, s := range res.Stats.Shards {
			if s.HedgeWon {
				wins++
			}
		}
		strag.Add("Q6", mode.label, millis(res.Stats.Elapsed), wins)
	}
	return report(w, strag)
}
