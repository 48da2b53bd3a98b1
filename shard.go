package adamant

import (
	"context"
	"fmt"

	"github.com/adamant-db/adamant/internal/bufpool"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/fault"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/session"
	"github.com/adamant-db/adamant/internal/shard"
)

// ShardLossMode selects what a sharded engine does with a partition it
// cannot recover (see WithShardLoss).
type ShardLossMode = shard.LossMode

// Shard-loss modes.
const (
	// ShardLossFail fails the whole query with a *ShardLostError (the
	// default): a lost partition is an error, never a silently smaller
	// answer.
	ShardLossFail = shard.LossFail
	// ShardLossPartial completes the query without the lost partitions
	// and lists them in Stats.PartialShards — explicitly flagged
	// degradation for workloads that prefer a partial answer over none.
	ShardLossPartial = shard.LossPartial
)

// ShardHedgePolicy configures hedged retries for straggling partitions
// (see WithShardHedging): Factor, Quantile and MinPeers shape the
// virtual-time straggler threshold. The zero value of each field takes
// the documented default.
type ShardHedgePolicy = shard.HedgePolicy

// ShardStat summarizes one partition of a sharded execution: which shard
// produced it, its virtual and wall time, and which robustness paths
// (hedge, failover, loss) fired along the way.
type ShardStat = exec.ShardStat

// ErrShardLost is the sentinel every unrecoverable shard loss wraps under
// the ShardLossFail mode. Match with errors.Is.
var ErrShardLost = shard.ErrShardLost

// ShardLostError is the typed failure carrying which partition was lost
// and on which shard. Match with errors.As.
type ShardLostError = shard.LostError

// EventShardFailover marks a partition re-dispatched to a healthy shard
// after its assigned shard died; EventShardLost marks a partition given up
// on; EventHedge marks a hedged duplicate attempt. In shard-level events
// the From/To fields carry shard indexes, not device IDs.
const (
	EventShardFailover = exec.EventShardFailover
	EventShardLost     = exec.EventShardLost
	EventHedge         = exec.EventHedge
)

// WithShards partitions every eligible query across n independent runtime
// shards. Each shard is a full engine stack — its own devices (Plug
// replicates every plugged device onto every shard), virtual clocks,
// admission scheduler, fault-injection stream and buffer pool — and the
// coordinator scatters filters and partial aggregates to the shards,
// gathering exact merged results: a sharded query returns bit-for-bit the
// unsharded answer, a typed error, or (under ShardLossPartial) an
// explicitly flagged partial answer. Queries whose plans the scatter
// planner cannot prove exact (position lists, sorted outputs, partitioned
// hash builds) transparently run unsharded on shard 0.
//
// n <= 1 leaves sharding off. WithShards composes with the engine's
// robustness options — deadlines apply per shard on its own clocks, fault
// plans are replicated with per-shard seeds so shards fault independently,
// and in-shard retry/failover/degradation work unchanged — but not with
// WithAutoPlan (the auto planner's catalog is per-runtime; combining them
// fails at Plug/Execute).
func WithShards(n int) EngineOption {
	return func(c *engineConfig) { c.shards = n }
}

// WithShardLoss selects the shard-loss degradation mode (default
// ShardLossFail). Only meaningful together with WithShards.
func WithShardLoss(mode ShardLossMode) EngineOption {
	return func(c *engineConfig) { c.shardLoss = mode }
}

// WithShardFailovers bounds how many times one partition may be
// re-dispatched onto a healthy peer after its shard dies. Zero (the
// default) allows shards-1 failovers — enough to reach every peer once;
// a negative n disables failover entirely, so a shard death immediately
// takes the shard-loss path. Only meaningful together with WithShards.
func WithShardFailovers(n int) EngineOption {
	return func(c *engineConfig) { c.shardFail = n }
}

// WithShardHedging arms hedged retries for straggling partitions. Once
// every partition has finished, one whose virtual elapsed exceeds Factor
// × the Quantile of its peers' is duplicated on the live shard that frees
// up first, starting no earlier than the threshold, and the earlier
// virtual completion wins. The decision reads only virtual time, so it is
// reproducible; the price is host wall time, since duplicates run after
// the primaries (Stats.Wall reports it). Only meaningful together with
// WithShards.
func WithShardHedging(p ShardHedgePolicy) EngineOption {
	return func(c *engineConfig) {
		p.Enabled = true
		c.shardHedge = p
	}
}

// ShardCount reports how many runtime shards the engine scatters over
// (1 when sharding is off).
func (e *Engine) ShardCount() int {
	if e.coord == nil {
		return 1
	}
	return e.coord.Shards()
}

// DeadShards lists the shard indexes currently marked dead, ascending.
// A dead shard stays dead for the engine's lifetime: its partitions are
// re-assigned to healthy peers at dispatch.
func (e *Engine) DeadShards() []int {
	if e.coord == nil {
		return nil
	}
	return e.coord.Dead()
}

// buildShards assembles the per-shard engine stacks and the coordinator
// at engine construction. Shard 0 reuses the engine's own runtime,
// scheduler and pool — the unsharded fallback path and partition 0 run on
// the same stack — while shards 1..n-1 get fresh ones. Fault plans are
// copied per shard with the seed offset by the shard index, so every
// shard draws an independent deterministic fault stream.
func (e *Engine) buildShards(cfg *engineConfig) {
	n := cfg.shards
	e.shardCtxs = make([]shardCtx, n)
	e.shardPlans = make([]*fault.Plan, n)
	e.shardCtxs[0] = shardCtx{rt: e.rt, sched: e.sched, pool: e.pool}
	e.shardPlans[0] = e.faultPlan
	for s := 1; s < n; s++ {
		rt := hub.NewRuntime()
		sched := session.NewScheduler(cfg.sess)
		var pool *bufpool.Manager
		if cfg.poolCap > 0 {
			pool = bufpool.New(bufpool.Config{
				Capacity:   cfg.poolCap,
				Policy:     cfg.poolPolicy,
				Cost:       e.metrics,
				Device:     rt.Device,
				Accountant: sched,
			})
			sched.SetPoolReclaimer(pool)
		}
		e.shardCtxs[s] = shardCtx{rt: rt, sched: sched, pool: pool}
		if e.faultPlan != nil {
			p := *e.faultPlan
			p.Seed += uint64(s)
			e.shardPlans[s] = &p
		}
	}
	shards := make([]shard.Shard, n)
	for s := range shards {
		sc := e.shardCtxs[s]
		shards[s] = shard.Shard{
			Name:  fmt.Sprintf("shard%d", s),
			RT:    sc.rt,
			Sched: sc.sched,
			Pool:  sc.pool,
		}
	}
	var rewrite func(*graph.Graph) *graph.Graph
	if cfg.fuse {
		rewrite = graph.Fuse
	}
	coord, err := shard.New(shard.Config{
		Shards:       shards,
		Hedge:        cfg.shardHedge,
		Loss:         cfg.shardLoss,
		MaxFailovers: cfg.shardFail,
		Rewrite:      rewrite,
	})
	if err != nil {
		e.confErr = err
		return
	}
	e.coord = coord
}

// runSharded scatters one query over the shard fleet. ok=false means the
// scatter planner declined the plan and nothing ran — the caller executes
// unsharded on shard 0.
func (e *Engine) runSharded(ctx context.Context, g *graph.Graph, opts exec.Options, priority int, shape string) (res *exec.Result, ok bool, err error) {
	if _, accept := graph.Scatter(g); !accept {
		return nil, false, nil
	}
	var demand map[device.ID]int64
	if e.tele != nil {
		// Only the metric labels need it; a plan the estimator rejects
		// simply runs unlabelled.
		demand, _ = exec.EstimateDemand(g, opts)
	}
	q := e.beginQuery(&opts, shape, demand)
	res, scattered, runErr := e.coord.Run(ctx, g, opts, priority)
	if !scattered {
		// Scatter is deterministic, so the precheck should have caught
		// this; fall back to the unsharded path regardless.
		return nil, false, nil
	}
	e.observeShardTelemetry(q.id, res, opts.Model.String())
	e.publishQuery(q, opts, res, runErr)
	return res, true, runErr
}
