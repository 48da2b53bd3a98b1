// Package adamant is a query executor with plug-in interfaces for easy
// co-processor integration — a pure-Go reproduction of the ICDE 2023 paper
// of the same name.
//
// ADAMANT splits query execution into three loosely coupled layers. The
// device layer is a set of ten pluggable interfaces (place_data,
// retrieve_data, prepare_memory, transform_memory, delete_memory,
// prepare_kernel, initialize, create_chunk, add_pinned_memory, execute)
// behind which any co-processor SDK can sit. The task layer encapsulates
// implementations of granular database primitives (filters, maps,
// materializations, hash builds/probes, aggregations) and enforces their
// I/O signatures. The runtime layer interprets a primitive graph and
// executes it on whatever devices are plugged in, under one of several
// execution models: operator-at-a-time, chunked (scales past device
// memory), pipelined (copy/compute overlap), and 4-phase pipelined (pinned
// double buffers with memory reuse).
//
// Because Go has no practical CUDA/OpenCL bindings, the co-processors
// behind the device layer are simulated: kernels execute natively on the
// host (real results, data-parallel across goroutines) while calibrated
// cost models advance a virtual clock that reproduces the relative
// behaviour of the paper's CUDA, OpenCL and OpenMP drivers on its two
// evaluation machines.
//
// # Quick start
//
//	eng := adamant.NewEngine()
//	gpu, _ := eng.Plug(adamant.RTX2080Ti, adamant.CUDA)
//
//	plan := eng.NewPlan()
//	plan.On(gpu)
//	price := plan.ScanInt32("price", prices)
//	disc := plan.ScanInt32("discount", discounts)
//	keep := plan.FilterBetween(disc, 5, 7)
//	rev := plan.Mul(plan.Materialize(price, keep), plan.Materialize(disc, keep))
//	plan.Return("revenue", plan.SumInt64(rev))
//
//	res, _ := eng.Execute(plan, adamant.ExecOptions{Model: adamant.FourPhasePipelined})
//	total := res.Int64("revenue")[0]
package adamant

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/adamant-db/adamant/internal/bufpool"
	"github.com/adamant-db/adamant/internal/cost"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/driver/simomp"
	"github.com/adamant-db/adamant/internal/driver/simopencl"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/fault"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/profile"
	"github.com/adamant-db/adamant/internal/session"
	"github.com/adamant-db/adamant/internal/shard"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/telemetry"
	"github.com/adamant-db/adamant/internal/trace"
	"github.com/adamant-db/adamant/internal/vclock"
)

// Hardware names a simulated processor model.
type Hardware int

// Available hardware models (the paper's two setups plus the GPUs of its
// capacity analysis).
const (
	RTX2080Ti Hardware = iota
	A100
	GTX1050
	GTX1080
	CoreI78700
	XeonGold5220R
)

func (h Hardware) spec() (*simhw.Spec, error) {
	switch h {
	case RTX2080Ti:
		return &simhw.RTX2080Ti, nil
	case A100:
		return &simhw.A100, nil
	case GTX1050:
		return &simhw.GTX1050, nil
	case GTX1080:
		return &simhw.GTX1080, nil
	case CoreI78700:
		return &simhw.CoreI78700, nil
	case XeonGold5220R:
		return &simhw.XeonGold5220R, nil
	default:
		return nil, fmt.Errorf("adamant: unknown hardware %d", int(h))
	}
}

// String returns the marketing name of the hardware.
func (h Hardware) String() string {
	if s, err := h.spec(); err == nil {
		return s.Name
	}
	return fmt.Sprintf("hardware(%d)", int(h))
}

// SDK names a programming SDK a device can be plugged through.
type SDK int

// Available SDKs.
const (
	CUDA SDK = iota
	OpenCL
	OpenMP
)

// String returns the SDK name.
func (s SDK) String() string {
	switch s {
	case CUDA:
		return "CUDA"
	case OpenCL:
		return "OpenCL"
	case OpenMP:
		return "OpenMP"
	default:
		return fmt.Sprintf("sdk(%d)", int(s))
	}
}

// Model selects an execution model (§IV of the paper).
type Model = exec.Model

// Execution models.
const (
	// OperatorAtATime keeps whole columns and intermediates resident;
	// fastest when data fits device memory, fails with OOM otherwise.
	OperatorAtATime = exec.OperatorAtATime
	// Chunked is the naive chunked model (Algorithm 1): scales to
	// larger-than-memory data with strictly serial transfers.
	Chunked = exec.Chunked
	// Pipelined overlaps transfers with execution (Algorithm 2).
	Pipelined = exec.Pipelined
	// FourPhaseChunked stages pinned double buffers and reuses them
	// across chunks (Algorithm 3 without overlap).
	FourPhaseChunked = exec.FourPhaseChunked
	// FourPhasePipelined is the full 4-phase model: pinned double
	// buffers, memory reuse, and copy/compute overlap.
	FourPhasePipelined = exec.FourPhasePipelined
)

// DeviceID identifies a plugged device within an Engine.
type DeviceID = device.ID

// ExecOptions configures one query execution.
type ExecOptions struct {
	// Model is the execution model (default OperatorAtATime).
	Model Model
	// ChunkElems is the chunk size in values (default 2^25, the paper's).
	ChunkElems int
	// Trace records a device-memory footprint sample per primitive.
	Trace bool
	// Priority orders this query in the admission queue under the
	// Priority admission policy; higher runs first. Ignored under FIFO.
	Priority int
	// Recorder, when non-nil, captures a per-operation execution trace of
	// the query (see NewTraceRecorder). Nil disables tracing at zero cost.
	Recorder *TraceRecorder
	// Deadline, when positive, is this query's virtual-time budget,
	// overriding the engine-wide WithDeadline setting. It is enforced at
	// admission (load shedding) and at every chunk boundary; violations
	// fail with an error wrapping ErrDeadline.
	Deadline time.Duration
	// Tenant labels this query's resource usage in the fleet profiler
	// (see WithProfile); empty falls back to the engine-wide WithTenant
	// default. Ignored when profiling is off.
	Tenant string
}

// ErrAdmission is the sentinel every admission rejection wraps: the
// session scheduler refused the query (its working set exceeds a device
// budget, or the admission queue is full) rather than letting it OOM a
// running session. Match with errors.Is.
var ErrAdmission = session.ErrAdmission

// ErrDeadline is the sentinel every virtual-time deadline violation wraps:
// a query shed at admission because its predicted queue wait exceeded its
// deadline, or cut at a chunk boundary after overrunning it. Match with
// errors.Is.
var ErrDeadline = vclock.ErrDeadline

// AdmissionPolicy selects the order in which queued queries are admitted.
type AdmissionPolicy = session.Policy

// Admission policies.
const (
	// FIFOAdmission admits queued queries in arrival order.
	FIFOAdmission = session.FIFO
	// PriorityAdmission admits the highest ExecOptions.Priority first.
	PriorityAdmission = session.Priority
)

// AdmissionStats snapshots the engine's session-scheduler counters.
type AdmissionStats = session.Stats

// FaultPlan is a deterministic fault-injection schedule applied to devices
// as they are plugged: seeded per-operation fault probabilities, an
// explicit step script, or both. Zero value = no faults. See
// ParseFaultPlan for the textual form used by the CLI's -faults flag.
type FaultPlan = fault.Plan

// ErrInjected is the sentinel every injected fault wraps; ErrDeviceLost
// marks the subset where a device died. Match with errors.Is to tell a
// deliberately injected failure from a genuine executor bug.
var (
	ErrInjected   = fault.ErrInjected
	ErrDeviceLost = fault.ErrDeviceLost
)

// ParseFaultPlan parses the textual fault-plan form, e.g.
// "seed=7,transient=0.01,oom=0.001,die=500,dev=cuda".
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.ParsePlan(spec) }

// RetryPolicy configures transient-fault retries at the device interfaces.
// Durations are charged in simulated device time.
type RetryPolicy struct {
	// MaxRetries re-attempts per device operation (0 disables retries).
	MaxRetries int
	// Backoff before the first retry, doubling up to BackoffCap.
	// Defaults: 50µs / 5ms when MaxRetries is set.
	Backoff    time.Duration
	BackoffCap time.Duration
}

// DeviceLostError is the typed failure surfaced when a device dies and no
// viable fallback remains; it wraps ErrDeviceLost (and so ErrInjected for
// injected deaths). Match with errors.As to learn which device was lost.
type DeviceLostError = exec.DeviceLostError

// OOMError is the typed failure surfaced when a device allocation fails
// and adaptive chunking is off (or exhausted). It records the device the
// allocation failed on.
type OOMError = exec.OOMError

// RuntimeEvent is one degradation action from a query's event log (e.g. a
// failover from a dead device to its fallback).
type RuntimeEvent = exec.RuntimeEvent

// EventFailover marks a query re-placed from a lost device to a fallback.
const EventFailover = exec.EventFailover

// EventDegrade marks one step of the adaptive OOM ladder: a chunk-size
// halving or the last-resort re-placement onto a host-resident device.
const EventDegrade = exec.EventDegrade

// EventReplan marks a mid-query re-plan: the auto planner re-sized the
// chunk after observed cardinality drifted from the estimate.
const EventReplan = exec.EventReplan

// HealthPolicy parameterizes the per-device circuit breaker enabled with
// WithHealthPolicy. The zero value uses the documented defaults.
type HealthPolicy = session.HealthPolicy

// EngineOption configures a new Engine.
type EngineOption func(*engineConfig)

type engineConfig struct {
	sess       session.Config
	budgetFrac float64
	faultPlan  *fault.Plan
	fallback   *DeviceID
	retry      exec.RetryPolicy
	deadline   vclock.Duration
	adaptive   bool
	minChunk   int
	health     *session.HealthPolicy
	poolCap    int64
	poolPolicy bufpool.Policy
	fuse       bool
	auto       bool
	shards     int
	shardLoss  shard.LossMode
	shardHedge shard.HedgePolicy
	shardFail  int
}

// CachePolicy selects the buffer pool's eviction order (see
// WithBufferPool).
type CachePolicy = bufpool.Policy

// Buffer-pool eviction policies.
const (
	// CacheCostAware evicts the column that is cheapest to re-ship
	// (bytes × the engine's measured ns/byte), LRU breaking ties.
	CacheCostAware = bufpool.CostAware
	// CacheLRU evicts the least-recently-used column.
	CacheLRU = bufpool.LRU
)

// ParseCachePolicy parses a policy name ("cost" or "lru").
func ParseCachePolicy(s string) (CachePolicy, error) { return bufpool.ParsePolicy(s) }

// CacheStats is a snapshot of the buffer pool's activity (see
// Engine.CacheStats).
type CacheStats = bufpool.Stats

// CachePoint is one lookup outcome of the cache hit-ratio timeline.
type CachePoint = bufpool.TimelinePoint

// WithBufferPool arms the engine's cross-query device buffer pool: up to
// capacityBytes of base columns are kept resident per device across
// queries, so a repeated workload ships each hot column over the bus once
// instead of once per query (the cold-vs-warm separation of the paper's
// Fig. 11 discussion). Concurrent queries over the same cold column join
// one in-flight transfer; in-use columns are lease-pinned and never
// evicted; the session scheduler charges pooled bytes once against the
// device budget and can evict cold columns to admit a waiting query. Zero
// or negative capacity leaves pooling off (the default), preserving the
// legacy per-query transfer path byte for byte.
func WithBufferPool(capacityBytes int64, policy CachePolicy) EngineOption {
	return func(c *engineConfig) {
		c.poolCap = capacityBytes
		c.poolPolicy = policy
	}
}

// WithFusion enables the operator-fusion pass: before execution, every plan
// is rewritten so that fusible selection→map→{reduce,materialize} chains run
// as single-pass fused kernels, skipping the bitmap and gathered-column
// intermediates of the unfused path (and the demand they would have charged
// at admission). Chains containing a non-fusible operator — OR/NOT filter
// combinations, column-column comparisons, semi-joins, position lists —
// stay on the unfused path, and results are bit-for-bit identical either
// way. Fused launches show up as FUSED_* primitives in ExplainAnalyze and
// as fuse spans in traces.
func WithFusion() EngineOption {
	return func(c *engineConfig) { c.fuse = true }
}

// FusionEnabled reports whether the engine rewrites plans with the fusion
// pass before executing them.
func (e *Engine) FusionEnabled() bool { return e.fuse }

// WithMaxConcurrent caps how many queries execute concurrently on the
// engine; further queries wait in the admission queue. Zero (the default)
// means unlimited.
func WithMaxConcurrent(n int) EngineOption {
	return func(c *engineConfig) { c.sess.MaxConcurrent = n }
}

// WithAdmissionPolicy selects FIFO (default) or priority admission
// ordering for queued queries.
func WithAdmissionPolicy(p AdmissionPolicy) EngineOption {
	return func(c *engineConfig) { c.sess.Policy = p }
}

// WithAdmissionQueueLimit caps the admission queue; arrivals beyond it
// fail fast with ErrAdmission instead of waiting. Zero means unlimited.
func WithAdmissionQueueLimit(n int) EngineOption {
	return func(c *engineConfig) { c.sess.MaxQueued = n }
}

// WithFaultPlan arms deterministic fault injection: every device plugged
// after engine construction whose name the plan targets is wrapped in the
// injection layer. Queries then see typed faults (all wrapping ErrInjected)
// at the device interfaces, governed by the plan's seed — the same plan over
// the same workload reproduces the same faults. Nil disables injection.
func WithFaultPlan(p *FaultPlan) EngineOption {
	return func(c *engineConfig) { c.faultPlan = p }
}

// WithFallbackDevice names the device queries re-place onto when one of
// their devices dies mid-run. The fallback is usually a host-resident
// device (OpenMP CPU): it shares the host's memory, so a query that lost
// its GPU can always complete there. A failed-over query's results are
// identical to the fault-free run; the failover is recorded in the result's
// event log, and the dead device is quarantined in the admission scheduler.
func WithFallbackDevice(id DeviceID) EngineOption {
	return func(c *engineConfig) { c.fallback = &id }
}

// WithRetryPolicy makes the engine retry transient device faults (failed
// transfers, kernel launch errors) with capped exponential backoff charged
// in simulated time. The zero policy disables retries.
func WithRetryPolicy(p RetryPolicy) EngineOption {
	return func(c *engineConfig) {
		c.retry = exec.RetryPolicy{
			MaxRetries: p.MaxRetries,
			Backoff:    vclock.DurationOf(p.Backoff),
			BackoffCap: vclock.DurationOf(p.BackoffCap),
		}
	}
}

// WithDeadline sets an engine-wide virtual-time budget per query,
// overridable per query via ExecOptions.Deadline. Deadline-carrying queries
// are shed at admission when their predicted queue wait already exceeds the
// budget, and cut at the first chunk boundary past it; both failures wrap
// ErrDeadline. Zero disables deadlines.
func WithDeadline(d time.Duration) EngineOption {
	return func(c *engineConfig) { c.deadline = vclock.DurationOf(d) }
}

// WithAdaptiveChunking enables graceful OOM degradation: when a device
// allocation fails, the chunk-streaming models halve the effective chunk
// size and retry down to the given floor in elements (0 = the default
// floor), then re-place the query on a host-resident device as the last
// resort. Degradation steps appear in the result's event log and trace.
func WithAdaptiveChunking(minChunkElems int) EngineOption {
	return func(c *engineConfig) {
		c.adaptive = true
		c.minChunk = minChunkElems
	}
}

// WithHealthPolicy arms the per-device circuit breaker: the engine tracks a
// sliding error-rate window per device from every query's fault counts,
// quarantines a device when its breaker trips (or a failover proves it
// lost), and then runs cheap synthetic probation probes after each query;
// once HealthPolicy.ProbeSuccesses consecutive probes succeed the device is
// automatically readmitted — no manual Readmit needed. The zero policy uses
// the documented defaults.
func WithHealthPolicy(p HealthPolicy) EngineOption {
	return func(c *engineConfig) { c.health = &p }
}

// WithDeviceBudgetFraction enables memory admission control: each
// subsequently plugged non-host device gets an admission budget of the
// given fraction of its memory (1.0 = the full card). Queries whose
// estimated working set exceeds the budget are rejected with ErrAdmission;
// queries that fit the budget but not the memory currently free wait for
// running sessions to finish. Zero (the default) disables budget checks.
func WithDeviceBudgetFraction(f float64) EngineOption {
	return func(c *engineConfig) { c.budgetFrac = f }
}

// Engine is the unified runtime: a registry of plugged co-processors, the
// execution models that run primitive graphs on them, and a session
// scheduler that admits concurrent queries against per-device memory
// budgets. An Engine is safe for concurrent use: any number of goroutines
// may build plans and call Execute/ExecuteContext over the same engine.
type Engine struct {
	rt         *hub.Runtime
	sched      *session.Scheduler
	budgetFrac float64
	faultPlan  *fault.Plan
	fallback   *DeviceID
	retry      exec.RetryPolicy
	metrics    *trace.Metrics
	deadline   vclock.Duration
	adaptive   bool
	minChunk   int
	health     *session.HealthTracker
	tele       *engineTelemetry
	prof       *profile.Profiler
	profTele   *profileTelemetry
	tenant     string
	pool       *bufpool.Manager
	fuse       bool

	// sharding state (WithShards). shardCtxs[0] aliases the engine's own
	// rt/sched/pool; coord is nil when sharding is off. confErr records an
	// invalid option combination, surfaced at Plug/Execute (NewEngine
	// cannot return an error).
	shardCtxs  []shardCtx
	shardPlans []*fault.Plan
	coord      *shard.Coordinator
	confErr    error

	// auto-planning state (WithAutoPlan). calMu guards the one-time
	// calibration pass and catalog swaps (SeedCatalog); the catalog itself
	// is concurrency-safe.
	auto       bool
	catalog    *cost.Catalog
	planner    *cost.Planner
	calMu      sync.Mutex
	calibrated bool
}

// NewEngine returns an engine with no devices plugged. With no options the
// engine admits everything immediately (no concurrency cap, no memory
// budgets) — the single-user behaviour of the paper's runtime.
func NewEngine(opts ...EngineOption) *Engine {
	var cfg engineConfig
	for _, o := range opts {
		o(&cfg)
	}
	e := &Engine{
		rt:         hub.NewRuntime(),
		sched:      session.NewScheduler(cfg.sess),
		budgetFrac: cfg.budgetFrac,
		faultPlan:  cfg.faultPlan,
		fallback:   cfg.fallback,
		retry:      cfg.retry,
		metrics:    trace.NewMetrics(),
		deadline:   cfg.deadline,
		adaptive:   cfg.adaptive,
		minChunk:   cfg.minChunk,
		fuse:       cfg.fuse,
		auto:       cfg.auto,
	}
	if cfg.auto {
		e.catalog = cost.New()
		e.planner = cost.NewPlanner(e.catalog)
	}
	if cfg.health != nil {
		e.health = session.NewHealthTracker(*cfg.health)
	}
	if cfg.poolCap > 0 {
		e.pool = bufpool.New(bufpool.Config{
			Capacity:   cfg.poolCap,
			Policy:     cfg.poolPolicy,
			Cost:       e.metrics,
			Device:     e.rt.Device,
			Accountant: e.sched,
		})
		e.sched.SetPoolReclaimer(e.pool)
	}
	if cfg.shards > 1 {
		if cfg.auto {
			e.confErr = fmt.Errorf("adamant: WithShards cannot be combined with WithAutoPlan (the auto planner's calibration and catalog are per-runtime)")
		} else {
			e.buildShards(&cfg)
		}
	}
	return e
}

// shardCtx is one shard's engine stack: its own device registry, admission
// scheduler and (optional) buffer pool.
type shardCtx struct {
	rt    *hub.Runtime
	sched *session.Scheduler
	pool  *bufpool.Manager
}

// CacheEnabled reports whether the cross-query buffer pool is armed.
func (e *Engine) CacheEnabled() bool { return e.pool != nil }

// CacheStats snapshots the buffer pool's hit/miss/eviction activity. The
// zero value is returned when the pool is not armed.
func (e *Engine) CacheStats() CacheStats { return e.pool.Stats() }

// CacheTimeline returns the pool's recent lookup outcomes, oldest first —
// the hit-ratio timeline behind the -serve /cache endpoint. Nil without
// WithBufferPool.
func (e *Engine) CacheTimeline() []CachePoint { return e.pool.Timeline() }

// FlushCache evicts every cached column not currently leased by a running
// query and returns the bytes freed. Harnesses flush before comparing
// device memory against a pre-query baseline.
func (e *Engine) FlushCache() int64 {
	n := e.pool.Flush()
	for s := 1; s < len(e.shardCtxs); s++ {
		n += e.shardCtxs[s].pool.Flush()
	}
	return n
}

// Plug registers a simulated co-processor accessed through the given SDK
// and returns its device ID. Plugging is the only device-specific step: the
// execution models work unchanged with whatever is plugged.
func (e *Engine) Plug(hw Hardware, sdk SDK) (DeviceID, error) {
	if e.confErr != nil {
		return 0, e.confErr
	}
	spec, err := hw.spec()
	if err != nil {
		return 0, err
	}
	mk, err := deviceMaker(spec, sdk)
	if err != nil {
		return 0, err
	}
	return e.register(mk)
}

// deviceMaker resolves a (hardware, SDK) pair to a device constructor —
// sharded engines call it once per shard, so each shard gets its own
// instance with independent clocks and memory.
func deviceMaker(spec *simhw.Spec, sdk SDK) (func() device.Device, error) {
	switch sdk {
	case CUDA:
		if spec.HostResident() {
			return nil, fmt.Errorf("adamant: CUDA cannot drive host CPU %s", spec.Name)
		}
		return func() device.Device { return simcuda.New(spec, nil) }, nil
	case OpenCL:
		if spec.HostResident() {
			return func() device.Device { return simopencl.NewCPU(spec, nil) }, nil
		}
		return func() device.Device { return simopencl.NewGPU(spec, nil) }, nil
	case OpenMP:
		if !spec.HostResident() {
			return nil, fmt.Errorf("adamant: OpenMP cannot drive GPU %s", spec.Name)
		}
		return func() device.Device { return simomp.New(spec, nil) }, nil
	default:
		return nil, fmt.Errorf("adamant: unknown SDK %d", int(sdk))
	}
}

// PlugDevice registers a custom device implementation. Any type satisfying
// the device layer's ten interfaces can be plugged without changing the
// runtime — the paper's headline claim. A sharded engine rejects it (a
// single instance cannot be replicated across runtimes); use PlugMaker.
func (e *Engine) PlugDevice(d device.Device) (DeviceID, error) {
	if e.confErr != nil {
		return 0, e.confErr
	}
	if len(e.shardCtxs) > 1 {
		return 0, fmt.Errorf("adamant: PlugDevice cannot replicate one device instance across %d shards; use PlugMaker", len(e.shardCtxs))
	}
	return e.registerOn(0, d)
}

// PlugMaker registers a custom device on every shard by calling mk once
// per shard runtime (once total when sharding is off). Each call must
// return a fresh instance.
func (e *Engine) PlugMaker(mk func() device.Device) (DeviceID, error) {
	if e.confErr != nil {
		return 0, e.confErr
	}
	return e.register(mk)
}

// register plugs one device instance per shard runtime (just the engine's
// own when sharding is off). Shards must stay mirror images: a divergent
// device ID across shards is an internal error.
func (e *Engine) register(mk func() device.Device) (DeviceID, error) {
	id, err := e.registerOn(0, mk())
	if err != nil {
		return 0, err
	}
	for s := 1; s < len(e.shardCtxs); s++ {
		sid, err := e.registerOn(s, mk())
		if err != nil {
			return 0, fmt.Errorf("adamant: plugging shard %d: %w", s, err)
		}
		if sid != id {
			return 0, fmt.Errorf("adamant: shard %d assigned device id %d, shard 0 assigned %d", s, sid, id)
		}
	}
	return id, nil
}

// registerOn plugs a device into shard s — wrapped in the fault-injection
// layer when that shard's fault plan targets it — and applies the
// admission budget to the shard's scheduler.
func (e *Engine) registerOn(s int, d device.Device) (DeviceID, error) {
	plan := e.faultPlan
	if s > 0 {
		plan = e.shardPlans[s]
	}
	if plan != nil && plan.Enabled() && plan.AppliesTo(d.Info().Name) {
		d = fault.Wrap(d, plan)
	}
	rt, sched := e.rt, e.sched
	if s > 0 {
		rt, sched = e.shardCtxs[s].rt, e.shardCtxs[s].sched
	}
	id, err := rt.Register(d)
	if err != nil {
		return 0, err
	}
	info := d.Info()
	if e.budgetFrac > 0 && !info.HostResident && info.MemoryBytes > 0 {
		sched.SetBudget(id, int64(e.budgetFrac*float64(info.MemoryBytes)))
	}
	return id, nil
}

// SetDeviceBudget sets (or, with bytes <= 0, clears) the admission budget
// for one device, overriding WithDeviceBudgetFraction.
func (e *Engine) SetDeviceBudget(id DeviceID, bytes int64) {
	e.sched.SetBudget(id, bytes)
}

// AdmissionStats reports the session scheduler's counters: admitted,
// rejected and queued-before-running totals plus current queue depth.
func (e *Engine) AdmissionStats() AdmissionStats { return e.sched.Stats() }

// DeviceInfo describes a plugged device.
type DeviceInfo struct {
	ID             DeviceID
	Name           string
	SDK            string
	MemoryBytes    int64
	HostResident   bool
	PinnedTransfer bool
	RuntimeCompile bool
}

// Devices lists the plugged devices.
func (e *Engine) Devices() []DeviceInfo {
	var out []DeviceInfo
	for i, d := range e.rt.Devices() {
		info := d.Info()
		out = append(out, DeviceInfo{
			ID:             DeviceID(i),
			Name:           info.Name,
			SDK:            info.SDK,
			MemoryBytes:    info.MemoryBytes,
			HostResident:   info.HostResident,
			PinnedTransfer: info.PinnedTransfer,
			RuntimeCompile: info.RuntimeCompile,
		})
	}
	return out
}

// Execute runs a plan under the given options. It is ExecuteContext with
// a background context.
func (e *Engine) Execute(p *Plan, opts ExecOptions) (*Result, error) {
	return e.ExecuteContext(context.Background(), p, opts)
}

// ExecuteContext runs a plan under the given options, honouring the
// context end to end: while the query waits in the admission queue and, at
// every chunk boundary, while it executes. A cancelled query releases all
// of its device and pinned buffers before returning, so the engine's
// memory returns to its pre-query baseline. The returned error wraps
// ctx.Err() on cancellation and ErrAdmission on admission rejection.
func (e *Engine) ExecuteContext(ctx context.Context, p *Plan, opts ExecOptions) (*Result, error) {
	if err := p.err(); err != nil {
		return nil, err
	}
	res, err := e.runGraph(ctx, p.graph(), e.execOptions(opts, e.queryDeadline(opts)), opts.Priority)
	if err != nil {
		return nil, err
	}
	return newResult(res), nil
}

// execOptions lowers the facade's per-query options onto the executor's,
// folding in every engine-wide setting (retry policy, fallback device,
// adaptive chunking, deadline). All execution paths — plan API, SQL
// front-end, EXPLAIN ANALYZE — go through it, so they degrade and trace
// uniformly.
func (e *Engine) execOptions(opts ExecOptions, deadline vclock.Duration) exec.Options {
	return exec.Options{
		Model:            exec.Model(opts.Model),
		ChunkElems:       opts.ChunkElems,
		Trace:            opts.Trace,
		Recorder:         opts.Recorder.internal(),
		Retry:            e.retry,
		FallbackDevice:   e.fallback,
		AdaptiveChunking: e.adaptive,
		MinChunkElems:    e.minChunk,
		Deadline:         deadline,
		Pool:             e.pool,
		Tenant:           opts.Tenant,
	}
}

// queryDeadline resolves a query's virtual-time budget: its own override,
// else the engine-wide default.
func (e *Engine) queryDeadline(opts ExecOptions) vclock.Duration {
	if opts.Deadline > 0 {
		return vclock.DurationOf(opts.Deadline)
	}
	return e.deadline
}

// runGraph is the shared execution path: plan (shard, fuse, auto-plan,
// estimate the per-device working set), pass admission control, run, and
// publish the outcome.
func (e *Engine) runGraph(ctx context.Context, g *graph.Graph, opts exec.Options, priority int) (*exec.Result, error) {
	if e.confErr != nil {
		return nil, e.confErr
	}
	// The profiler keys usage by the normalized plan shape; fingerprint
	// before sharding and fusion so sharded, fused, and plain runs of the
	// same logical plan aggregate under one ledger key. With profiling
	// off (prof nil) this adds nothing to the hot path.
	var shape string
	if e.prof != nil {
		shape = graph.Fingerprint(g)
		if opts.Tenant == "" {
			opts.Tenant = e.tenant
		}
	}
	if e.coord != nil {
		// Sharding routes before fusion: the scatter planner partitions the
		// unfused plan, and each shard graph is fused individually (the
		// coordinator carries the fusion pass as its rewrite hook). Plans
		// the planner declines fall through and run unsharded on shard 0.
		res, ok, err := e.runSharded(ctx, g, opts, priority, shape)
		if ok {
			return res, err
		}
	}
	if e.fuse {
		// Fusion runs before demand estimation so the admission working set
		// shrinks with the intermediates the fused chains no longer allocate.
		g = graph.Fuse(g)
	}
	// Auto planning runs after fusion (fused plans get their own catalog
	// entries) and before demand estimation (admission must see the chosen
	// model and chunk size).
	var autoDec *cost.Decision
	autoMark := 0
	if e.auto {
		dec, err := e.autoPlan(g)
		if err != nil {
			return nil, err
		}
		autoDec = dec
		opts.Model = dec.Model
		opts.ChunkElems = dec.ChunkElems
		opts.PlanNotes = dec.Notes
		opts.Replan = dec.Replan()
		if opts.Recorder == nil {
			// The catalog learns from spans; auto mode always records.
			opts.Recorder = trace.NewRecorder()
		}
		autoMark = opts.Recorder.Len()
	}
	demand, err := exec.EstimateDemand(g, opts)
	if err != nil {
		return nil, err
	}

	admitStart := time.Now()
	grant, err := e.sched.Admit(ctx, session.Request{
		Priority: priority,
		Demand:   demand,
		Deadline: opts.Deadline,
		Cost:     e.estimateCost(demand),
	})
	if err != nil {
		if errDeadline(err) {
			e.metrics.ObserveQuery(trace.QueryStats{Shed: true, Err: true})
		}
		e.prof.ObserveShed(shape, opts.Tenant)
		return nil, err
	}
	defer grant.Release()
	q := e.beginQuery(&opts, shape, demand)
	q.queued = grant.Queued()
	if opts.Recorder.Enabled() {
		// Admission happens in host time, before the query touches any
		// virtual timeline, so the span carries only a wall-clock duration
		// (kept out of the deterministic exports).
		opts.Recorder.Add(trace.Span{
			Parent: trace.NoSpan, Kind: trace.KindAdmission,
			Label: admissionLabel(q.queued),
			Wall:  time.Since(admitStart),
			Node:  -1, Pipeline: -1, Chunk: -1,
		})
	}

	res, runErr := exec.RunContext(ctx, e.rt, g, opts)

	e.observeHealth(res, runErr)
	if autoDec != nil {
		e.observeAutoPlan(autoDec, opts, res, runErr, autoMark)
	}
	e.publishQuery(q, opts, res, runErr)
	e.pulseHealth()
	return res, runErr
}

// queryRun is what beginQuery learns about a query and publishQuery needs
// back. Apart from shape and queued it is only filled with telemetry on.
type queryRun struct {
	id uint64
	// dev and driver name the query's primary device for metric labels.
	dev, driver string
	// shape is the plan fingerprint the profiler keys its ledger by.
	shape   string
	startVT vclock.Time
	// mark is the recorder's length at begin: the spans from there on are
	// this query's.
	mark   int
	queued bool
}

// beginQuery opens a query's telemetry: it assigns the query ID, routes
// executor events to the sink, makes sure a recorder exists so the flight
// recorder can retain full spans for interesting queries, and emits
// query_start. Recording never perturbs virtual timings, so traces stay
// bit-identical with telemetry on; with telemetry off it allocates nothing.
func (e *Engine) beginQuery(opts *exec.Options, shape string, demand map[device.ID]int64) queryRun {
	q := queryRun{shape: shape}
	tel := e.tele
	if tel == nil {
		return q
	}
	q.id = tel.nextQuery.Add(1)
	opts.QueryID = q.id
	opts.Events = tel.sink
	q.dev, q.driver = e.primaryDevice(demand)
	if opts.Recorder == nil {
		opts.Recorder = trace.NewRecorder()
	}
	q.mark = opts.Recorder.Len()
	q.startVT = e.vtNow()
	tel.sink.Emit(telemetry.Event{
		Type: telemetry.EventQueryStart, Query: q.id,
		VT: int64(q.startVT), Device: q.dev, Model: opts.Model.String(),
	})
	return q
}

// publishQuery folds one finished query into the engine metrics and, with
// telemetry on, into the registry, event log, profiler and flight recorder.
// It is the one place failovers and degrades are counted. res is nil when
// the run failed before producing statistics.
func (e *Engine) publishQuery(q queryRun, opts exec.Options, res *exec.Result, runErr error) {
	var failovers, degrades int64
	if res != nil {
		s := &res.Stats
		for _, ev := range s.Events {
			switch ev.Kind {
			case exec.EventFailover:
				failovers++
			case exec.EventDegrade:
				degrades++
			}
		}
		// A partition re-dispatched after its shard died is a failover too,
		// but one the coordinator reports per partition, not as a device
		// event (adamant_shard_failovers_total counts it on the registry).
		var shardFailovers int64
		for _, sh := range s.Shards {
			if sh.FailedOver {
				shardFailovers++
			}
		}
		e.metrics.ObserveQuery(trace.QueryStats{
			Elapsed:      s.Elapsed,
			KernelTime:   s.KernelTime,
			TransferTime: s.TransferTime,
			OverheadTime: s.OverheadTime,
			H2DBytes:     s.H2DBytes,
			D2HBytes:     s.D2HBytes,
			Launches:     s.Launches,
			Chunks:       s.Chunks,
			Pipelines:    s.Pipelines,
			Retries:      s.Retries,
			Failovers:    failovers + shardFailovers,
			Degrades:     degrades,
			Queued:       q.queued,
			Err:          runErr != nil,
		})
	}
	if e.tele != nil {
		e.observeQueryTelemetry(q, opts, res, runErr, int(failovers), int(degrades))
	}
}

// estimateCost predicts a query's virtual runtime from its per-device
// demand estimate and the engine's observed cost per byte, for
// admission-side load shedding.
func (e *Engine) estimateCost(demand map[device.ID]int64) vclock.Duration {
	var bytes int64
	for _, b := range demand {
		bytes += b
	}
	return vclock.Duration(float64(bytes) * e.metrics.NsPerByte())
}

func admissionLabel(queued bool) string {
	if queued {
		return "admission (queued)"
	}
	return "admission"
}

// Quarantined lists the devices currently quarantined after failovers.
func (e *Engine) Quarantined() []DeviceID { return e.sched.Quarantined() }

// Readmit clears a device's quarantine (it recovered or was replaced).
func (e *Engine) Readmit(id DeviceID) { e.sched.Readmit(id) }

// Runtime exposes the underlying device registry for advanced integrations
// (custom experiment harnesses, direct device access).
func (e *Engine) Runtime() *hub.Runtime { return e.rt }
