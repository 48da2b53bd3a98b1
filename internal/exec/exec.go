// Package exec implements ADAMANT's execution models (§IV of the paper):
// operator-at-a-time, chunked execution (Algorithm 1), pipelined execution
// with copy/compute overlap (Algorithm 2), and the 4-phase pipelined model
// with pinned memory and buffer reuse (Algorithm 3, Figure 8).
//
// All models drive the same primitive graph through the same device
// interfaces; they differ only in how input columns are staged (whole,
// per-chunk allocations, or reusable double buffers), whether buffers are
// pinned, whether transfers overlap kernel execution, and when scratch
// memory is allocated and released. That separation — execution policy on
// one side, pluggable devices on the other — is the paper's core design.
package exec

import (
	"context"
	"fmt"
	"time"

	"github.com/adamant-db/adamant/internal/bufpool"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/telemetry"
	"github.com/adamant-db/adamant/internal/trace"
	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// Model selects the execution model.
type Model int

// Execution models.
const (
	// OperatorAtATime keeps whole columns and whole intermediates in
	// device memory, one primitive at a time. Fast when everything fits;
	// fails with OOM when it does not (the scalability limit of §IV-A).
	OperatorAtATime Model = iota
	// Chunked is the naive chunked model of Algorithm 1: every chunk is
	// transferred, processed through the whole pipeline, and its scratch
	// released, strictly serially.
	Chunked
	// Pipelined overlaps chunk transfer with pipeline execution using
	// rotating pageable staging buffers (Algorithm 2).
	Pipelined
	// FourPhaseChunked stages pinned double buffers and reusable scratch
	// up front, processes chunks serially, and frees everything in a
	// delete phase (Algorithm 3 without overlap).
	FourPhaseChunked
	// FourPhasePipelined is the full Algorithm 3: pinned double buffers,
	// buffer reuse, and copy/compute overlap.
	FourPhasePipelined
)

// String returns the model's name as used in the paper's figures.
func (m Model) String() string {
	switch m {
	case OperatorAtATime:
		return "operator-at-a-time"
	case Chunked:
		return "chunked"
	case Pipelined:
		return "pipelined"
	case FourPhaseChunked:
		return "4-phase chunked"
	case FourPhasePipelined:
		return "4-phase pipelined"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Models lists all execution models in presentation order.
func Models() []Model {
	return []Model{OperatorAtATime, Chunked, Pipelined, FourPhaseChunked, FourPhasePipelined}
}

// valid reports whether m names a defined execution model.
func (m Model) valid() bool {
	return m >= OperatorAtATime && m <= FourPhasePipelined
}

// modeFlags are the policy knobs a model maps onto.
type modeFlags struct {
	wholeInput    bool // transfer entire columns up front
	reuseStaging  bool // rotate persistent staging buffers instead of per-chunk allocs
	pinnedStaging bool // staging (and result) buffers in pinned memory
	stagedScratch bool // allocate scratch once per pipeline, delete at the end
	overlap       bool // let transfers run ahead of execution
	syncPerChunk  bool // charge the transfer/execute thread handshake per chunk
}

func (m Model) flags() modeFlags {
	switch m {
	case OperatorAtATime:
		return modeFlags{wholeInput: true, stagedScratch: true}
	case Chunked:
		return modeFlags{}
	case Pipelined:
		return modeFlags{reuseStaging: true, stagedScratch: true, overlap: true, syncPerChunk: true}
	case FourPhaseChunked:
		return modeFlags{reuseStaging: true, pinnedStaging: true, stagedScratch: true}
	case FourPhasePipelined:
		return modeFlags{reuseStaging: true, pinnedStaging: true, stagedScratch: true, overlap: true, syncPerChunk: true}
	default:
		return modeFlags{}
	}
}

// Options configures one execution.
type Options struct {
	// Model selects the execution model. The zero value is
	// OperatorAtATime.
	Model Model
	// ChunkElems is the chunk size in elements (rounded up to a multiple
	// of 64 so bitmap chunks stay word-aligned). Defaults to 2^25, the
	// paper's chunk size. Ignored by OperatorAtATime.
	ChunkElems int
	// StagingBuffers is the number of rotating staging buffers per scan
	// in the buffer-reusing models (Figure 8 uses 2: double buffering).
	// Values above 2 deepen the transfer prefetch under the overlapped
	// models. Defaults to 2.
	StagingBuffers int
	// Trace records a device-memory footprint sample after every
	// primitive execution (Figure 7 right).
	Trace bool
	// Recorder, when non-nil, records a span for every simulated
	// operation the query issues (transfers, kernels, allocations, chunk
	// and pipeline boundaries, retries, failovers) with virtual times.
	// Recording does not perturb the simulation: virtual timings are
	// identical with and without a recorder. Nil disables tracing at zero
	// cost.
	Recorder *trace.Recorder
	// Retry configures transient-fault retries at the device interfaces.
	// The zero value disables retrying.
	Retry RetryPolicy
	// FallbackDevice, when set, names the device the query re-places onto
	// if one of its devices dies mid-run (a DeviceLost fault). Nil (the
	// default) disables failover: a lost device fails the query. It is a
	// pointer because ID 0 is a valid device.
	FallbackDevice *device.ID
	// AdaptiveChunking enables graceful OOM degradation: when a device
	// allocation fails (an injected OOM fault or genuine pool exhaustion),
	// the chunk-streaming models halve the effective chunk size and re-run
	// the plan, stepping down to MinChunkElems; once at the floor (or
	// under OperatorAtATime, which has no chunks to shrink) the query
	// re-places onto a host-resident device as the last resort. Every step
	// is recorded as an EventDegrade and, when tracing, a degrade span, so
	// the virtual-time cost of degradation stays visible. False (the
	// default) keeps OOM fail-fast.
	AdaptiveChunking bool
	// MinChunkElems is the adaptive-chunking floor in elements (rounded up
	// to a multiple of 64). Zero means DefaultMinChunkElems. Values above
	// ChunkElems clamp to it.
	MinChunkElems int
	// Deadline, when positive, is the query's virtual-time budget: at every
	// chunk and pipeline boundary the executor compares the virtual time
	// elapsed since the query began against it and fails with an error
	// wrapping vclock.ErrDeadline once exceeded. The query's buffers are
	// released like any other failure. Zero disables the deadline.
	Deadline vclock.Duration
	// Events, when non-nil, receives structured runtime events (retries,
	// failovers, degrade steps, deadline overruns) stamped with QueryID
	// and virtual time. Like the Recorder, emission never perturbs the
	// simulation, and a nil sink costs nothing on the hot path.
	Events *telemetry.EventSink
	// QueryID tags emitted events and spans digests with the caller's
	// query number (the facade assigns one per execution).
	QueryID uint64
	// Tenant is an opaque workload label for per-tenant resource
	// attribution. The executor ignores it; the facade profiler keys
	// ledger entries by (shape, tenant).
	Tenant string
	// Pool, when non-nil, is the cross-query buffer pool base columns are
	// leased from instead of being shipped through the query's private
	// transfer path. Warm columns cost no bus traffic; cold columns load
	// once, with concurrent queries joining the in-flight transfer. Nil
	// (the default) keeps the legacy per-query path and byte-identical
	// traces.
	Pool *bufpool.Manager
	// PlanNotes, when non-empty, are the auto-planner's decision
	// annotations: each becomes a zero-extent autoplan span at the query
	// start, so plans are auditable from the trace alone. Recorded only
	// when a Recorder is set; never perturbs execution.
	PlanNotes []string
	// Replan, when non-nil, is consulted at every pipeline boundary after
	// the first with the pipeline's estimated vs observed input
	// cardinality. If it returns a new chunk size, the executor restarts
	// the attempt from the host-resident scans with the new size — the
	// same restart mechanism as failover and the adaptive-OOM ladder, so
	// results stay bit-identical by construction. At most one re-plan
	// fires per query.
	Replan ReplanFunc
}

// ReplanObservation is what the executor tells the re-planner at a
// pipeline boundary: the pipeline about to run, its estimated input rows
// (graph.EstimateRows), the rows actually observed from upstream, and the
// chunk size currently in effect.
type ReplanObservation struct {
	Pipeline   int
	EstRows    int
	ActualRows int
	ChunkElems int
}

// ReplanFunc decides whether to restart the attempt with a new chunk size.
// Returning replan=false continues undisturbed.
type ReplanFunc func(o ReplanObservation) (newChunkElems int, replan bool)

// DriftSample records one pipeline's estimated vs observed input
// cardinality — the estimate error the re-planner acts on, exposed in
// Stats so tests can assert on drift without parsing traces.
type DriftSample struct {
	Pipeline   int
	EstRows    int
	ActualRows int
}

// DefaultChunkElems is the paper's chunk size (2^25 values).
const DefaultChunkElems = 1 << 25

// DefaultMinChunkElems is the adaptive-chunking floor when Options leaves
// MinChunkElems zero: small enough that a working set which still OOMs at
// this chunk size needs a different device, not a smaller chunk.
const DefaultMinChunkElems = 1024

func (o Options) chunkElems() int {
	c := o.ChunkElems
	if c <= 0 {
		c = DefaultChunkElems
	}
	return (c + 63) &^ 63
}

func (o Options) minChunkElems() int {
	m := o.MinChunkElems
	if m <= 0 {
		m = DefaultMinChunkElems
	}
	if c := o.chunkElems(); m > c {
		m = c
	}
	return (m + 63) &^ 63
}

func (o Options) stagingBuffers() int {
	if o.StagingBuffers < 2 {
		return 2
	}
	return o.StagingBuffers
}

// ResultColumn is one named query output retrieved to the host.
type ResultColumn struct {
	Name string
	Data vec.Vector
}

// FootprintSample is one point of the memory-footprint trace.
type FootprintSample struct {
	Label string
	Bytes int64
}

// Stats summarizes one execution.
type Stats struct {
	// Elapsed is the virtual execution time (what the paper's figures
	// report).
	Elapsed vclock.Duration
	// Wall is the host wall-clock time spent, for the curious.
	Wall time.Duration
	// KernelTime is the summed virtual kernel body time; TransferTime
	// the summed transfer time; OverheadTime the summed launch, argument
	// mapping, allocation and transform cost (Figure 10's overhead).
	// These three are deltas of the devices' own counters over the run —
	// how a launch splits into overhead and body is known only inside the
	// device — so on a shared engine they include whatever concurrent
	// queries ran on the same devices meanwhile.
	KernelTime   vclock.Duration
	TransferTime vclock.Duration
	OverheadTime vclock.Duration
	// H2DBytes and D2HBytes count the payload bytes this query moved, and
	// Launches the kernels it dispatched: counted per successful call at
	// the query's own device seam, so a concurrent neighbour's work is
	// never billed here.
	H2DBytes int64
	D2HBytes int64
	Launches int64
	// Chunks counts chunk iterations across all pipelines; Pipelines the
	// pipeline count.
	Chunks    int
	Pipelines int
	// PeakDeviceBytes is the high-water device memory across devices — a
	// device-wide mark, shared with concurrent queries like the times above.
	PeakDeviceBytes int64
	// Footprint holds the trace when Options.Trace is set.
	Footprint []FootprintSample
	// Retries counts device operations re-issued after transient faults.
	Retries int64
	// Events is the runtime event log: failovers and other degradation
	// actions taken to keep the query alive.
	Events []RuntimeEvent
	// FaultsByDevice counts device-interface errors observed per device
	// during the run — every faulted operation, whether it was retried,
	// degraded around, or surfaced. The per-device health tracker feeds
	// its error-rate window from these counts.
	FaultsByDevice map[device.ID]int64
	// Drift holds the per-pipeline estimated-vs-observed input
	// cardinalities from the last attempt (index order follows pipeline
	// execution order).
	Drift []DriftSample
	// Replans counts mid-query re-plan restarts taken by Options.Replan.
	Replans int
	// Shards holds the per-partition execution summaries when the query ran
	// through the shard coordinator (one entry per table partition, in
	// partition order). Nil for unsharded runs.
	Shards []ShardStat
	// PartialShards lists the shard indexes whose partitions were lost and
	// excluded from the result under the Partial shard-loss mode, in
	// ascending order. Empty means the result covers every partition.
	PartialShards []int
}

// ShardStat summarizes one partition of a sharded execution: which shard
// finally produced it, how long it took in virtual time, and which
// robustness paths fired along the way.
type ShardStat struct {
	// Shard is the partition index; Ran is the shard that produced the
	// accepted result (differs from Shard after a hedge win or failover).
	Shard int
	Ran   int
	// Rows is the partition's input row count.
	Rows int
	// Elapsed is the partition's accepted virtual completion time: the
	// primary's elapsed, or, when the hedge won, the duplicate's ready
	// time plus its own elapsed. Wall is host time, a measurement only.
	Elapsed vclock.Duration
	Wall    time.Duration
	// Hedged marks a duplicate run after the partition's virtual elapsed
	// passed the hedge threshold; HedgeWon marks the duplicate completing
	// earlier in virtual time. FailedOver marks the partition re-dispatched
	// after its shard died; Lost marks an unrecoverable partition (Partial
	// mode only).
	Hedged     bool
	HedgeWon   bool
	FailedOver bool
	Lost       bool
}

// Result is the outcome of one execution.
type Result struct {
	Columns []ResultColumn
	Stats   Stats
}

// Column returns a result column by name.
func (r *Result) Column(name string) (vec.Vector, bool) {
	for _, c := range r.Columns {
		if c.Name == name {
			return c.Data, true
		}
	}
	return vec.Vector{}, false
}

// Run executes the primitive graph on the runtime's devices under the
// given options and returns the named results with execution statistics.
func Run(rt *hub.Runtime, g *graph.Graph, opts Options) (*Result, error) {
	return RunContext(context.Background(), rt, g, opts)
}

// RunContext is Run with cancellation: the context is checked at every
// chunk and pipeline boundary, and a cancelled query releases every device
// and pinned buffer it allocated before returning. On cancellation the
// returned error wraps ctx.Err() and the returned Result, when non-nil,
// carries the partial execution statistics accumulated so far (no result
// columns).
func RunContext(ctx context.Context, rt *hub.Runtime, g *graph.Graph, opts Options) (*Result, error) {
	if !opts.Model.valid() {
		return nil, fmt.Errorf("%w: %d", ErrUnknownModel, int(opts.Model))
	}
	pipelines, err := g.BuildPipelines()
	if err != nil {
		return nil, err
	}
	return newExecutor(ctx, rt, g, opts).run(pipelines)
}

func newExecutor(ctx context.Context, rt *hub.Runtime, g *graph.Graph, opts Options) *executor {
	return &executor{
		ctx:       ctx,
		rt:        rt,
		g:         g,
		opts:      opts,
		flags:     opts.Model.flags(),
		ports:     make(map[graph.PortRef]*portState),
		live:      make(map[liveBuf]struct{}),
		remap:     make(map[device.ID]device.ID),
		faults:    make(map[device.ID]int64),
		poolPorts: make(map[graph.NodeID]*bufpool.Lease),
		seams:     make(map[device.ID]*seam),
		retry:     opts.Retry.withDefaults(),

		rec:        opts.Recorder,
		qspan:      trace.NoSpan,
		pspan:      trace.NoSpan,
		cspan:      trace.NoSpan,
		lastKernel: trace.NoSpan,
		pidx:       -1,
		cidx:       -1,
		curNode:    -1,
	}
}
