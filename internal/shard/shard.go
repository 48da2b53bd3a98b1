// Package shard implements sharded multi-runtime execution: a coordinator
// that partitions a query's base table across N independent runtimes
// ("shards", each with its own devices, virtual clocks, admission scheduler
// and buffer pool), scatters the per-partition subplans, and gathers the
// partial results back into the unsharded answer.
//
// The paper's executor is a single-box design; this package is the
// robustness layer above it. The scatter rewrite is planned statically by
// graph.Scatter and is exact by construction — every merge reproduces the
// unsharded columns bit for bit, or the planner declines and the caller
// runs unsharded. On top of that the coordinator adds the tail-latency and
// fault machinery a fleet of runtimes needs: per-shard virtual-time
// deadlines (each partition gets the query's budget on its own clock),
// hedged retries decided in virtual time (a straggling partition is
// duplicated on the peer that frees up first, and the earlier virtual
// completion wins), bounded retry-then-failover when a shard dies
// mid-query, and a configurable shard-loss mode that either fails the
// query with a typed error or returns the surviving partitions flagged in
// Stats.PartialShards. A sharded query therefore returns the exact answer,
// a typed error, or an explicitly flagged partial answer — never a silent
// wrong result.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/adamant-db/adamant/internal/bufpool"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/session"
	"github.com/adamant-db/adamant/internal/telemetry"
	"github.com/adamant-db/adamant/internal/trace"
	"github.com/adamant-db/adamant/internal/vclock"
)

// ErrShardLost is the sentinel every unrecoverable shard loss wraps under
// the Fail loss mode. Match with errors.Is.
var ErrShardLost = errors.New("shard: partition lost")

// LostError is the typed failure surfaced when a partition's shard died
// and no healthy peer (or failover budget) remained to re-run it.
type LostError struct {
	// Partition is the lost table partition's index; Shard names the last
	// shard that tried it.
	Partition int
	Shard     string
	// Err is the underlying device loss.
	Err error
}

func (e *LostError) Error() string {
	return fmt.Sprintf("shard: partition %d lost on %s: %v", e.Partition, e.Shard, e.Err)
}

func (e *LostError) Unwrap() error { return e.Err }

// Is matches ErrShardLost.
func (e *LostError) Is(target error) bool { return target == ErrShardLost }

// Shard is one member runtime of the coordinator: its own device registry,
// and optionally its own admission scheduler and buffer pool — the same
// stack a standalone engine runs, reused per shard.
type Shard struct {
	// Name labels the shard in events, traces and errors.
	Name string
	// RT is the shard's device registry. Required.
	RT *hub.Runtime
	// Sched, when non-nil, admission-controls every attempt dispatched to
	// this shard against the shard's own device budgets and queue.
	Sched *session.Scheduler
	// Pool, when non-nil, is the shard's cross-query buffer pool; attempts
	// on this shard run with it, and it is invalidated wholesale when the
	// shard is marked dead.
	Pool *bufpool.Manager
}

// LossMode selects what the coordinator does with a partition it cannot
// recover.
type LossMode int

// Loss modes.
const (
	// LossFail fails the whole query with a *LostError (default).
	LossFail LossMode = iota
	// LossPartial completes the query without the lost partitions and
	// lists them in Stats.PartialShards — explicitly flagged, never
	// silent.
	LossPartial
)

// String names the loss mode.
func (m LossMode) String() string {
	switch m {
	case LossFail:
		return "fail"
	case LossPartial:
		return "partial"
	default:
		return fmt.Sprintf("loss(%d)", int(m))
	}
}

// HedgePolicy configures hedged retries for straggling partitions. The
// decision is taken in virtual time once every primary attempt has
// finished, so the same plan on the same fleet always hedges the same
// partitions with the same outcome.
type HedgePolicy struct {
	// Enabled arms hedging.
	Enabled bool
	// Factor scales the peer quantile into the hedge threshold: a
	// partition whose virtual elapsed exceeds Factor × quantile(other
	// partitions' elapsed) is a straggler. Default 2.
	Factor float64
	// Quantile is the peer-elapsed quantile the threshold derives from,
	// in [0,1]. Default 0.5 (the median).
	Quantile float64
	// MinPeers is how many other partitions must have completed before a
	// partition may be hedged (the quantile is meaningless earlier).
	// Default 2.
	MinPeers int
}

func (p HedgePolicy) normalized() HedgePolicy {
	if p.Factor <= 0 {
		p.Factor = 2
	}
	if p.Quantile <= 0 || p.Quantile > 1 {
		p.Quantile = 0.5
	}
	if p.MinPeers <= 0 {
		p.MinPeers = 2
	}
	return p
}

// Config configures a Coordinator.
type Config struct {
	// Shards are the member runtimes; partition i is initially assigned
	// to shard i. At least one shard is required.
	Shards []Shard
	// Hedge configures hedged retries (disabled by default).
	Hedge HedgePolicy
	// Loss selects the shard-loss degradation mode (default LossFail).
	Loss LossMode
	// MaxFailovers bounds how many times one partition may be
	// re-dispatched after shard deaths. Zero means len(Shards)-1 (every
	// peer gets one chance); negative disables failover entirely.
	MaxFailovers int
	// Rewrite, when non-nil, transforms each shard graph before execution
	// (the engine passes its fusion pass here so shards fuse exactly like
	// the unsharded path).
	Rewrite func(*graph.Graph) *graph.Graph
	// Boundaries, when non-nil, overrides the even 64-aligned partition
	// bounds (len(Shards)+1 ascending row indexes from 0 to the
	// partitioned table's rows) — the knob skew experiments turn.
	Boundaries []int
	// Events, when non-nil, receives shard_straggler / shard_hedge /
	// shard_failover / shard_lost telemetry events.
	Events *telemetry.EventSink
}

// Coordinator plans and runs scattered queries over a fixed shard set.
// It is safe for concurrent use; shard-death marks persist across queries
// (a dead runtime stays dead until ReviveAll).
type Coordinator struct {
	cfg          Config
	maxFailovers int

	mu   sync.Mutex
	dead []bool
}

// New validates the configuration and returns a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("shard: no shards configured")
	}
	for i, s := range cfg.Shards {
		if s.RT == nil {
			return nil, fmt.Errorf("shard: shard %d has no runtime", i)
		}
		if s.Name == "" {
			cfg.Shards[i].Name = fmt.Sprintf("shard%d", i)
		}
	}
	cfg.Hedge = cfg.Hedge.normalized()
	maxFailovers := cfg.MaxFailovers
	if maxFailovers == 0 {
		maxFailovers = len(cfg.Shards) - 1
	} else if maxFailovers < 0 {
		maxFailovers = 0
	}
	return &Coordinator{
		cfg:          cfg,
		maxFailovers: maxFailovers,
		dead:         make([]bool, len(cfg.Shards)),
	}, nil
}

// Shards reports the configured shard count.
func (c *Coordinator) Shards() int { return len(c.cfg.Shards) }

// Dead lists the shards currently marked dead, ascending.
func (c *Coordinator) Dead() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for i, d := range c.dead {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// ReviveAll clears every shard-death mark (the harnesses' reset between
// differential runs over rebuilt runtimes).
func (c *Coordinator) ReviveAll() {
	c.mu.Lock()
	for i := range c.dead {
		c.dead[i] = false
	}
	c.mu.Unlock()
}

// markDead flags a shard dead and invalidates its buffer pool so doomed
// leases drain instead of pinning the dead runtime's cache entries.
func (c *Coordinator) markDead(s int) {
	c.mu.Lock()
	was := c.dead[s]
	c.dead[s] = true
	c.mu.Unlock()
	if !was {
		c.cfg.Shards[s].Pool.InvalidateAll()
	}
}

// pickPeer returns the live shard other than exclude whose own work ends
// earliest in virtual time (finish, indexed by shard), lowest index on
// ties. A nil finish picks in index order: the deterministic failover
// target.
func (c *Coordinator) pickPeer(exclude int, finish []vclock.Duration) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	best := -1
	for i := range c.cfg.Shards {
		if i != exclude && !c.dead[i] && (best < 0 || finish != nil && finish[i] < finish[best]) {
			best = i
		}
	}
	return best, best >= 0
}

func (c *Coordinator) isDead(s int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead[s]
}

// Run executes g scattered over the shard set. priority orders each
// partition attempt in its shard's admission queue (same semantics as the
// unsharded path's session priority). scattered reports whether the
// planner accepted the graph: when false, nothing ran and the caller
// should execute unsharded (result and error are nil). When true, the
// result is bit-identical to the unsharded run, or the error is typed.
func (c *Coordinator) Run(ctx context.Context, g *graph.Graph, opts exec.Options, priority int) (res *exec.Result, scattered bool, err error) {
	spec, ok := graph.Scatter(g)
	if !ok {
		return nil, false, nil
	}
	np := len(c.cfg.Shards)
	bounds := c.cfg.Boundaries
	if bounds == nil {
		bounds = graph.ShardBoundaries(spec.PartRows, np)
	} else if err := checkBounds(bounds, np, spec.PartRows); err != nil {
		return nil, true, err
	}
	graphs := make([]*graph.Graph, np)
	for p := range graphs {
		sg, err := spec.ShardGraph(bounds[p], bounds[p+1])
		if err != nil {
			return nil, true, err
		}
		if c.cfg.Rewrite != nil {
			sg = c.cfg.Rewrite(sg)
		}
		graphs[p] = sg
	}

	r := &runState{c: c, opts: opts, graphs: graphs, bounds: bounds, priority: priority}
	start := time.Now()
	outs := make([]partOut, np)
	var wg sync.WaitGroup
	for p := 0; p < np; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			outs[p] = r.runPartition(ctx, p)
		}(p)
	}
	wg.Wait()

	var lost []int
	for p := range outs {
		if outs[p].err != nil {
			return nil, true, outs[p].err
		}
		if outs[p].lost {
			lost = append(lost, p)
		}
	}
	if len(lost) == np {
		return nil, true, &LostError{
			Partition: lost[0],
			Shard:     c.cfg.Shards[outs[lost[0]].stat.Ran].Name,
			Err:       errors.New("every partition lost"),
		}
	}

	if c.cfg.Hedge.Enabled {
		r.hedge(ctx, outs, start)
	}
	cols, err := gather(spec, outs)
	if err != nil {
		return nil, true, err
	}
	stats := r.assemble(outs, time.Since(start))
	r.graft(outs)
	return &exec.Result{Columns: cols, Stats: stats}, true, nil
}

// checkBounds validates explicit partition boundaries.
func checkBounds(b []int, shards, rows int) error {
	if len(b) != shards+1 {
		return fmt.Errorf("shard: %d boundaries for %d shards (want %d)", len(b), shards, shards+1)
	}
	if b[0] != 0 || b[shards] != rows {
		return fmt.Errorf("shard: boundaries must span [0, %d], got [%d, %d]", rows, b[0], b[shards])
	}
	for i := 1; i <= shards; i++ {
		if b[i] < b[i-1] {
			return fmt.Errorf("shard: boundaries not ascending at %d", i)
		}
		if i < shards && b[i]%64 != 0 {
			return fmt.Errorf("shard: interior boundary %d not 64-aligned", b[i])
		}
	}
	return nil
}

// partOut is one partition's outcome.
type partOut struct {
	res    *exec.Result
	rec    *trace.Recorder
	stat   exec.ShardStat
	events []exec.RuntimeEvent
	lost   bool
	err    error
}

// runState is the per-query coordinator state.
type runState struct {
	c        *Coordinator
	opts     exec.Options
	graphs   []*graph.Graph
	bounds   []int
	priority int
}

func (r *runState) emit(t telemetry.EventType, shard int, detail string) {
	sink := r.opts.Events
	if sink == nil {
		sink = r.c.cfg.Events
	}
	sink.Emit(telemetry.Event{
		Type:   t,
		Query:  r.opts.QueryID,
		Device: r.c.cfg.Shards[shard].Name,
		Detail: detail,
	})
}

// attempt runs one partition once on one shard: per-shard admission (the
// shard's own scheduler, budgets and queue), then execution on the shard's
// runtime with the shard's buffer pool, under the given virtual-time
// deadline on the shard's own clocks. A primary inherits the query's full
// deadline — shards execute concurrently in virtual time, so each
// partition must individually fit the budget for the scattered query to
// fit it.
func (r *runState) attempt(ctx context.Context, p, s int, deadline vclock.Duration) (*exec.Result, *trace.Recorder, error) {
	sh := r.c.cfg.Shards[s]
	aopts := r.opts
	aopts.Pool = sh.Pool
	aopts.Deadline = deadline
	if r.opts.Recorder.Enabled() {
		aopts.Recorder = trace.NewRecorder()
	}
	if sh.Sched != nil {
		demand, err := exec.EstimateDemand(r.graphs[p], aopts)
		if err != nil {
			return nil, aopts.Recorder, err
		}
		grant, err := sh.Sched.Admit(ctx, session.Request{Priority: r.priority, Demand: demand, Deadline: aopts.Deadline})
		if err != nil {
			return nil, aopts.Recorder, err
		}
		defer grant.Release()
	}
	res, err := exec.RunContext(ctx, sh.RT, r.graphs[p], aopts)
	return res, aopts.Recorder, err
}

// runPartition drives one partition to an accepted result, a typed error,
// or (under LossPartial) an explicit loss: an attempt on the assigned
// shard, bounded failover onto healthy peers when a shard dies.
func (r *runState) runPartition(ctx context.Context, p int) partOut {
	c := r.c
	out := partOut{stat: exec.ShardStat{Shard: p, Ran: p, Rows: r.bounds[p+1] - r.bounds[p]}}
	assigned := p
	if c.isDead(p) {
		next, ok := c.pickPeer(p, nil)
		if !ok {
			return r.losePartition(&out, p, p, errors.New("no healthy shard"))
		}
		out.stat.FailedOver = true
		out.events = append(out.events, exec.RuntimeEvent{Kind: exec.EventShardFailover, From: device.ID(p), To: device.ID(next)})
		r.emit(telemetry.EventShardFailover, next, fmt.Sprintf("partition %d re-assigned from dead %s", p, c.cfg.Shards[p].Name))
		assigned = next
	}
	failovers := 0
	start := time.Now()
	for {
		res, rec, err := r.attempt(ctx, p, assigned, r.opts.Deadline)
		if err == nil {
			out.res, out.rec = res, rec
			out.stat.Ran = assigned
			out.stat.Elapsed = res.Stats.Elapsed
			out.stat.Wall = time.Since(start)
			return out
		}
		if ctx.Err() != nil {
			out.err = err
			return out
		}
		var dl *exec.DeviceLostError
		if !errors.As(err, &dl) {
			// Deadline, admission, OOM, validation: typed failures the
			// caller must see — failing over would mask a real limit.
			out.err = err
			return out
		}
		c.markDead(assigned)
		if failovers < c.maxFailovers {
			if next, ok := c.pickPeer(assigned, nil); ok {
				failovers++
				out.stat.FailedOver = true
				out.events = append(out.events, exec.RuntimeEvent{Kind: exec.EventShardFailover, From: device.ID(assigned), To: device.ID(next)})
				r.emit(telemetry.EventShardFailover, next, fmt.Sprintf("partition %d re-dispatched after %s died", p, c.cfg.Shards[assigned].Name))
				assigned = next
				continue
			}
		}
		return r.losePartition(&out, p, assigned, err)
	}
}

// hedge duplicates straggling partitions in virtual time, once every
// primary has finished. For each partition in index order, the threshold
// is Factor × the Quantile of the other partitions' virtual elapsed. A
// partition over it is re-run on the live shard whose own work ends
// earliest, starting at ready = max(threshold, that shard's finish), and
// the earlier of the two completions is kept. A duplicate that cannot
// finish first is not run; one that fails is discarded. The duplicate
// advances its shard's finish, so two duplicates never overlap on one
// shard.
func (r *runState) hedge(ctx context.Context, outs []partOut, start time.Time) {
	h := r.c.cfg.Hedge
	finish := make([]vclock.Duration, len(r.c.cfg.Shards))
	for p := range outs {
		if o := &outs[p]; !o.lost {
			finish[o.stat.Ran] = max(finish[o.stat.Ran], o.stat.Elapsed)
		}
	}
	var peers []vclock.Duration
	for p := range outs {
		o := &outs[p]
		if o.lost {
			continue
		}
		peers = peers[:0]
		for q := range outs {
			if q != p && !outs[q].lost {
				peers = append(peers, outs[q].stat.Elapsed)
			}
		}
		if len(peers) < h.MinPeers {
			continue
		}
		sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
		th := vclock.Duration(float64(peers[int(float64(len(peers)-1)*h.Quantile)]) * h.Factor)
		primary := o.stat.Elapsed
		if primary <= th {
			continue
		}
		r.emit(telemetry.EventShardStraggler, o.stat.Ran, fmt.Sprintf("partition %d took %v, threshold %v", p, primary, th))
		s, ok := r.c.pickPeer(o.stat.Ran, finish)
		if !ok {
			continue
		}
		ready := max(th, finish[s])
		if ready >= primary {
			continue
		}
		deadline := r.opts.Deadline
		if deadline > 0 {
			// Zero would disable the deadline, not exhaust it.
			if deadline -= ready; deadline <= 0 {
				continue
			}
		}
		if ctx.Err() != nil {
			return
		}
		o.stat.Hedged = true
		r.emit(telemetry.EventShardHedge, s, fmt.Sprintf("partition %d duplicated from %s at %v", p, r.c.cfg.Shards[o.stat.Ran].Name, ready))
		res, rec, err := r.attempt(ctx, p, s, deadline)
		if err != nil {
			continue
		}
		done := ready + res.Stats.Elapsed
		finish[s] = done
		if done < primary {
			o.res, o.rec = res, rec
			o.stat.Ran, o.stat.HedgeWon, o.stat.Elapsed = s, true, done
			o.stat.Wall = time.Since(start)
		}
	}
}

// losePartition finalizes an unrecoverable partition under the configured
// loss mode.
func (r *runState) losePartition(out *partOut, p, shard int, cause error) partOut {
	out.events = append(out.events, exec.RuntimeEvent{Kind: exec.EventShardLost, From: device.ID(shard)})
	r.emit(telemetry.EventShardLost, shard, fmt.Sprintf("partition %d unrecoverable: %v", p, cause))
	if r.c.cfg.Loss == LossPartial {
		out.stat.Ran = shard
		out.stat.Lost = true
		out.lost = true
		return *out
	}
	out.err = &LostError{Partition: p, Shard: r.c.cfg.Shards[shard].Name, Err: cause}
	return *out
}

// assemble folds the per-partition stats into the query's Stats: virtual
// elapsed is the max of the partitions' completion times (shards run
// concurrently on independent clocks, and a winning duplicate completes
// at its ready time plus its own elapsed), counters sum over the accepted
// attempts (losing duplicates are not counted), and the event log concatenates
// coordinator events and per-attempt events in partition order.
func (r *runState) assemble(outs []partOut, wall time.Duration) exec.Stats {
	var st exec.Stats
	st.Wall = wall
	for p := range outs {
		o := &outs[p]
		st.Shards = append(st.Shards, o.stat)
		st.Events = append(st.Events, o.events...)
		if o.lost {
			st.PartialShards = append(st.PartialShards, p)
			continue
		}
		st.Elapsed = max(st.Elapsed, o.stat.Elapsed)
		s := &o.res.Stats
		st.KernelTime += s.KernelTime
		st.TransferTime += s.TransferTime
		st.OverheadTime += s.OverheadTime
		st.H2DBytes += s.H2DBytes
		st.D2HBytes += s.D2HBytes
		st.Launches += s.Launches
		st.Chunks += s.Chunks
		st.Pipelines += s.Pipelines
		st.Retries += s.Retries
		st.Replans += s.Replans
		if s.PeakDeviceBytes > st.PeakDeviceBytes {
			st.PeakDeviceBytes = s.PeakDeviceBytes
		}
		st.Events = append(st.Events, s.Events...)
		if len(s.FaultsByDevice) > 0 {
			if st.FaultsByDevice == nil {
				st.FaultsByDevice = make(map[device.ID]int64)
			}
			for dev, n := range s.FaultsByDevice {
				st.FaultsByDevice[dev] += n
			}
		}
	}
	return st
}

// graft folds the accepted attempts' recorders into the query recorder,
// one KindShard container per partition in partition order, so the trace
// stays a deterministic function of the plan even though shards executed
// concurrently.
func (r *runState) graft(outs []partOut) {
	if !r.opts.Recorder.Enabled() {
		return
	}
	for p := range outs {
		o := &outs[p]
		label := fmt.Sprintf("partition %d on %s", p, r.c.cfg.Shards[o.stat.Ran].Name)
		if o.stat.HedgeWon {
			label += " (hedge won)"
		}
		if o.lost {
			label = fmt.Sprintf("partition %d lost", p)
		}
		var start, end vclock.Time
		if o.rec != nil {
			for _, s := range o.rec.Spans() {
				if s.Parent != trace.NoSpan {
					continue
				}
				if start == 0 && end == 0 || s.Start < start {
					start = s.Start
				}
				if s.End > end {
					end = s.End
				}
			}
		}
		id := r.opts.Recorder.Add(trace.Span{
			Parent: trace.NoSpan, Kind: trace.KindShard, Label: label,
			Start: start, End: end, Node: -1, Pipeline: -1, Chunk: -1,
		})
		if !o.lost {
			r.opts.Recorder.Graft(id, o.rec)
		}
	}
}
