package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/adamant-db/adamant/internal/bufpool"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/task"
	"github.com/adamant-db/adamant/internal/telemetry"
	"github.com/adamant-db/adamant/internal/trace"
	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// portState is the runtime annotation of one producing output port: where
// its data lives (device ID + buffer), how much of it is valid for the
// current chunk, and the event at which it becomes available. This is the
// edge state (data ID, device ID, processed/fetched indexes) of §III-C.
type portState struct {
	dev        device.ID
	buf        devmem.BufferID
	capacity   int // allocated elements
	n          int // logical elements valid this chunk
	ready      vclock.Time
	persistent bool // survives chunk/pipeline boundaries
}

type alloc struct {
	dev device.ID
	buf devmem.BufferID
	// ref, when set, names the port whose state must be dropped with the
	// buffer so the next chunk re-allocates instead of using a dead ID.
	ref    graph.PortRef
	hasRef bool
}

// liveBuf identifies one device allocation owned by the running query.
type liveBuf struct {
	dev device.ID
	buf devmem.BufferID
}

type executor struct {
	ctx   context.Context
	rt    *hub.Runtime
	g     *graph.Graph
	opts  Options
	flags modeFlags

	ports   map[graph.PortRef]*portState
	base    vclock.Time
	chain   vclock.Time // serial dependency chain for non-overlapped models
	horizon vclock.Time

	// live tracks every buffer this query has allocated and not yet
	// freed, so cancellation and errors can release the query's whole
	// footprint — a session must never leak device or pinned memory into
	// a shared engine.
	live map[liveBuf]struct{}

	// remap redirects logical device IDs after a failover: once a device
	// dies and the query re-places, every plan reference to the dead
	// device resolves to its fallback. events and retries feed the
	// degradation fields of Stats.
	remap   map[device.ID]device.ID
	events  []RuntimeEvent
	retries int64

	// seams holds the query's wrapper of each device it has touched, keyed
	// by the device's own (unremapped) ID; retry is Options.Retry with its
	// defaults filled in. launches, h2dBytes and d2hBytes are what the
	// seams counted: this query's work, whatever else the devices ran.
	seams    map[device.ID]*seam
	retry    RetryPolicy
	launches int64
	h2dBytes int64
	d2hBytes int64

	// poolLeases are the buffer-pool leases the run holds on cached base
	// columns; poolPorts maps each pooled scan node to its lease. Pooled
	// buffers are pool-owned: they never enter live (the leak barrier must
	// not free them) and are returned by releaseLeases at teardown and
	// before every recovery attempt.
	poolLeases []*bufpool.Lease
	poolPorts  map[graph.NodeID]*bufpool.Lease

	// chunkEff is the effective chunk size in elements for the current
	// attempt. It starts at Options.chunkElems() and is halved by the
	// adaptive OOM ladder (recoverAttempt), never below minChunkElems().
	chunkEff int
	// faults counts device-interface errors per device across the whole
	// run, feeding Stats.FaultsByDevice and the session health tracker.
	faults map[device.ID]int64

	builders    map[graph.PortRef]*hostAccum
	trace       []FootprintSample
	chunksTotal int

	// re-planning state. estRows are the optimizer's per-pipeline input
	// estimates (graph.EstimateRows, aligned with the pipelines slice);
	// drift collects the estimated-vs-observed samples of the current
	// attempt; replanned bounds Options.Replan to one restart per query.
	estRows   []int
	drift     []DriftSample
	replanned bool
	replans   int

	// tracing state. rec is nil when tracing is off; every other field is
	// only consulted behind a rec != nil guard, so the disabled path does
	// no tracing work at all. qspan/pspan/cspan are the open container
	// spans; pidx/cidx/curNode/opLabel attribute the next engine span;
	// lastKernel is the most recent kernel span (its row count is learned
	// only after the count buffer is retrieved).
	rec        *trace.Recorder
	qspan      trace.SpanID
	pspan      trace.SpanID
	cspan      trace.SpanID
	lastKernel trace.SpanID
	pidx       int
	cidx       int
	curNode    int
	opLabel    string

	// per-pipeline state
	perChunkAllocs []alloc
	pipelineAllocs []alloc
	counts         map[graph.NodeID]devmem.BufferID
	staging        map[graph.NodeID][]devmem.BufferID
	pendingUses    map[graph.PortRef]int
}

// checkCtx reports the context's cancellation — and, when Options.Deadline
// is set, a virtual-time deadline overrun — as an execution error. It is
// consulted at pipeline and chunk boundaries: the granularity at which a
// query can stop without leaving a device operation half-issued.
func (x *executor) checkCtx() error {
	if x.ctx != nil {
		if err := x.ctx.Err(); err != nil {
			return fmt.Errorf("exec: query cancelled at chunk boundary: %w", err)
		}
	}
	if d := x.opts.Deadline; d > 0 {
		if elapsed := x.horizon.Sub(x.base); elapsed > d {
			if x.opts.Events != nil {
				x.opts.Events.Emit(telemetry.Event{
					Type: telemetry.EventDeadline, Query: x.opts.QueryID,
					VT:     int64(x.horizon),
					Detail: fmt.Sprintf("elapsed %v > deadline %v", elapsed, d),
				})
			}
			if x.rec != nil {
				x.rec.Add(trace.Span{
					Parent: x.qspan, Kind: trace.KindDeadline,
					Label: fmt.Sprintf("elapsed %v > deadline %v", elapsed, d),
					Start: x.horizon, End: x.horizon,
					Node: -1, Pipeline: -1, Chunk: -1,
				})
			}
			return fmt.Errorf("exec: query overran its deadline at chunk boundary (elapsed %v, deadline %v): %w",
				elapsed, d, vclock.ErrDeadline)
		}
	}
	return nil
}

// track records a device allocation as owned by this query.
func (x *executor) track(dev device.ID, buf devmem.BufferID) {
	x.live[liveBuf{dev, buf}] = struct{}{}
}

// parentSpan is the innermost open container span.
func (x *executor) parentSpan() trace.SpanID {
	if x.cspan != trace.NoSpan {
		return x.cspan
	}
	if x.pspan != trace.NoSpan {
		return x.pspan
	}
	return x.qspan
}

// setOp attributes the next engine spans to a plan node and operation
// label. A no-op without a recorder.
func (x *executor) setOp(node graph.NodeID, label string) {
	if x.rec == nil {
		return
	}
	x.curNode = int(node)
	x.opLabel = label
}

// free releases one tracked buffer. Frees deliberately bypass the failover
// remap: a buffer on a dead device must be freed there.
func (x *executor) free(dev device.ID, buf devmem.BufferID) error {
	s, err := x.seam(dev)
	if err != nil {
		return err
	}
	delete(x.live, liveBuf{dev, buf})
	return s.DeleteMemory(buf)
}

// releaseAll frees every buffer the query still owns: the delete phase on
// success, and the leak barrier on cancellation or error. Buffers already
// gone (views invalidated by a parent free) are skipped. The failover path
// passes traced=true so the re-placement's frees go through the seam and
// appear in the trace (they fall inside the statistics window); the
// deferred end-of-run teardown runs after statistics are assembled and
// frees on the raw device, keeping the trace's engine spans in balance
// with Stats.
func (x *executor) releaseAll(traced bool) {
	order := make([]liveBuf, 0, len(x.live))
	for lb := range x.live {
		order = append(order, lb)
	}
	// Free in a deterministic order: the virtual-time outcome is the same
	// either way, but traces are diffed byte-for-byte.
	sort.Slice(order, func(i, j int) bool {
		if order[i].dev != order[j].dev {
			return order[i].dev < order[j].dev
		}
		return order[i].buf < order[j].buf
	})
	if traced {
		x.setOp(-1, "failover teardown")
	}
	for _, lb := range order {
		s, err := x.seam(lb.dev)
		if err != nil {
			continue
		}
		d := s.Device
		if traced {
			d = s
		}
		if err := d.DeleteMemory(lb.buf); err != nil && !errors.Is(err, devmem.ErrUnknownBuffer) {
			// Nothing actionable mid-teardown; the pool's accounting
			// stays consistent either way.
			continue
		}
	}
	x.live = make(map[liveBuf]struct{})
}

func (x *executor) run(pipelines []*graph.Pipeline) (*Result, error) {
	wallStart := time.Now()
	// Results are copied to the host before return, so everything the
	// query allocated — staging, scratch, accumulators, routed copies —
	// is released when it finishes, is cancelled, or fails. A shared
	// engine must come back to its memory baseline after every session.
	// Pool leases release after the query's own buffers: the pool keeps
	// its columns (that is the point), it only loses this query's
	// eviction pin.
	defer x.releaseLeases()
	defer x.releaseAll(false)

	// Establish the virtual time base: everything in this run happens
	// after all prior activity on every device. The device snapshot is
	// taken once so a device plugged mid-flight by another session cannot
	// skew the before/after statistics delta.
	devs := x.rt.Devices()
	before := make([]device.Stats, len(devs))
	for i, d := range devs {
		before[i] = d.Stats()
		if a := d.CopyEngine().Avail(); a > x.base {
			x.base = a
		}
		if a := d.ComputeEngine().Avail(); a > x.base {
			x.base = a
		}
	}
	x.chain = x.base
	x.horizon = x.base
	if x.rec != nil {
		x.qspan = x.rec.Add(trace.Span{
			Parent: trace.NoSpan, Kind: trace.KindQuery,
			Label: x.opts.Model.String(),
			Start: x.base, End: x.base,
			Node: -1, Pipeline: -1, Chunk: -1,
		})
		for _, note := range x.opts.PlanNotes {
			x.rec.Add(trace.Span{
				Parent: x.qspan, Kind: trace.KindAutoPlan,
				Label: note,
				Start: x.base, End: x.base,
				Node: -1, Pipeline: -1, Chunk: -1,
			})
		}
	}
	x.estRows = graph.EstimateRows(x.g, pipelines)

	// Each attempt runs the whole plan; recoverAttempt decides whether a
	// failed attempt may retry (failover onto a fallback device, or one
	// step of the adaptive OOM ladder), releasing everything the attempt
	// allocated so the plan restarts from its host-resident scans — the
	// coarsest but always-correct re-placement. The bound covers one
	// failover per plugged device plus the longest possible halving ladder
	// (chunk sizes are int: at most ~32 halvings) and a final re-place.
	maxAttempts := len(devs) + 34
	if x.opts.Replan != nil {
		maxAttempts++ // the one re-plan restart is not a failure
	}
	x.chunkEff = x.opts.chunkElems()
	var runErr error
	var columns []ResultColumn
	for attempt := 0; ; attempt++ {
		x.resetAttempt()
		columns, runErr = x.attemptRun(pipelines)
		if runErr == nil || attempt >= maxAttempts {
			break
		}
		if !x.recoverAttempt(runErr) {
			break
		}
	}

	// Statistics are assembled whether the run succeeded, failed or was
	// cancelled: an early return must still report the partial work done.
	res := &Result{Columns: columns}
	res.Stats = Stats{
		Elapsed:        x.horizon.Sub(x.base),
		Wall:           time.Since(wallStart),
		Chunks:         x.chunksTotal,
		Pipelines:      len(pipelines),
		Footprint:      x.trace,
		H2DBytes:       x.h2dBytes,
		D2HBytes:       x.d2hBytes,
		Launches:       x.launches,
		Retries:        x.retries,
		Events:         x.events,
		FaultsByDevice: x.faults,
		Drift:          x.drift,
		Replans:        x.replans,
	}
	for i, d := range devs {
		after := d.Stats()
		res.Stats.KernelTime += after.KernelTime - before[i].KernelTime
		res.Stats.TransferTime += after.TransferTime - before[i].TransferTime
		res.Stats.OverheadTime += after.OverheadTime - before[i].OverheadTime
		if pk := d.MemStats().Peak; pk > res.Stats.PeakDeviceBytes {
			res.Stats.PeakDeviceBytes = pk
		}
	}
	if runErr != nil {
		// Cancellation and faults still report the partial statistics, so
		// callers (the CLI's SIGINT path) can print what happened before
		// the cut.
		res.Columns = nil
		return res, runErr
	}
	return res, nil
}

// resetAttempt clears all per-attempt execution state so the plan can run
// (or re-run, after a failover) from its host-resident inputs.
func (x *executor) resetAttempt() {
	x.ports = make(map[graph.PortRef]*portState)
	x.builders = make(map[graph.PortRef]*hostAccum)
	x.pendingUses = make(map[graph.PortRef]int)
	x.perChunkAllocs = nil
	x.pipelineAllocs = nil
	x.counts = nil
	x.staging = nil
	x.drift = x.drift[:0]
	if x.flags.wholeInput {
		// Whole intermediates free as soon as every consumer anywhere in
		// the plan has run (the footprint curve of Figure 7 right).
		for _, e := range x.g.Edges() {
			x.pendingUses[graph.PortRef{Node: e.From, Port: e.FromPort}]++
		}
	}
	// A re-run happens strictly after everything the failed attempt
	// issued; the serial chain restarts at the current horizon.
	x.chain = x.horizon
}

// attemptRun executes every pipeline and collects the named results. It is
// one failover attempt: any error aborts the attempt and reports it.
func (x *executor) attemptRun(pipelines []*graph.Pipeline) ([]ResultColumn, error) {
	for i, p := range pipelines {
		if err := x.checkCtx(); err != nil {
			return nil, err
		}
		est := 0
		if i < len(x.estRows) {
			est = x.estRows[i]
		}
		actual := x.actualRows(p)
		x.drift = append(x.drift, DriftSample{Pipeline: p.Index, EstRows: est, ActualRows: actual})
		// Consult the re-planner at pipeline boundaries after the first:
		// the first pipeline reads host-resident scans whose cardinality
		// is exact, so only downstream pipelines can drift.
		if x.opts.Replan != nil && !x.replanned && i > 0 {
			if err := x.maybeReplan(p, est, actual); err != nil {
				return nil, err
			}
		}
		if err := x.runPipeline(p); err != nil {
			return nil, fmt.Errorf("exec: %s: %w", p, err)
		}
	}
	var columns []ResultColumn
	for _, r := range x.g.Results() {
		col, err := x.collectResult(r)
		if err != nil {
			return nil, err
		}
		columns = append(columns, col)
	}
	return columns, nil
}

// actualRows observes the pipeline's true input cardinality just before it
// runs: scan-fed pipelines read their host columns exactly, and
// intermediate-fed pipelines read the materialized port lengths their
// upstream pipelines produced.
func (x *executor) actualRows(p *graph.Pipeline) int {
	if sr := p.ScanRows(x.g); sr > 0 || len(p.Scans) > 0 {
		return sr
	}
	rows := 0
	for _, nid := range p.Nodes {
		for _, e := range x.g.Node(nid).Inputs() {
			if ps, ok := x.ports[graph.PortRef{Node: e.From, Port: e.FromPort}]; ok && ps.n > rows {
				rows = ps.n
			}
		}
	}
	return rows
}

// maybeReplan asks Options.Replan whether the observed drift warrants a
// restart with a new chunk size. A fired re-plan records the event and
// span, switches the effective chunk size, and aborts the attempt with
// errReplan so the attempt loop restarts from the host-resident scans —
// the same always-correct restart failover uses.
func (x *executor) maybeReplan(p *graph.Pipeline, est, actual int) error {
	nc, ok := x.opts.Replan(ReplanObservation{
		Pipeline: p.Index, EstRows: est, ActualRows: actual, ChunkElems: x.chunkEff,
	})
	if !ok {
		return nil
	}
	nc = (nc + 63) &^ 63
	if nc < 64 {
		nc = 64
	}
	if nc == x.chunkEff {
		return nil
	}
	x.replanned = true
	x.replans++
	x.events = append(x.events, RuntimeEvent{
		Kind: EventReplan, ChunkFrom: x.chunkEff, ChunkTo: nc,
	})
	if x.opts.Events != nil {
		x.opts.Events.Emit(telemetry.Event{
			Type: telemetry.EventReplan, Query: x.opts.QueryID,
			VT: int64(x.horizon),
			Detail: fmt.Sprintf("chunk %d->%d: pipeline %d rows est %d actual %d",
				x.chunkEff, nc, p.Index, est, actual),
		})
	}
	if x.rec != nil {
		x.rec.Add(trace.Span{
			Parent: x.qspan, Kind: trace.KindReplan,
			Label: fmt.Sprintf("chunk %d->%d: pipeline %d rows est %d actual %d",
				x.chunkEff, nc, p.Index, est, actual),
			Start: x.horizon, End: x.horizon,
			Node: -1, Pipeline: p.Index, Chunk: -1,
		})
	}
	x.chunkEff = nc
	return errReplan
}

func (x *executor) observe(t vclock.Time) {
	if t > x.horizon {
		x.horizon = t
	}
}

// ready returns the dependency event for the next operation: the serial
// chain for synchronous models, or the supplied data dependencies when the
// model allows overlap.
func (x *executor) ready(data vclock.Time) vclock.Time {
	if x.flags.overlap {
		return vclock.MaxTime(data, x.base)
	}
	return vclock.MaxTime(data, x.chain)
}

// advance records an operation's completion.
func (x *executor) advance(end vclock.Time) {
	x.observe(end)
	if !x.flags.overlap && end > x.chain {
		x.chain = end
	}
}

func (x *executor) runPipeline(p *graph.Pipeline) error {
	if x.rec != nil {
		x.pidx = p.Index
		x.pspan = x.rec.Add(trace.Span{
			Parent: x.qspan, Kind: trace.KindPipeline,
			Label: fmt.Sprintf("pipeline %d", p.Index),
			Start: x.horizon, End: x.horizon,
			Node: -1, Pipeline: p.Index, Chunk: -1,
		})
		defer func() {
			x.pspan, x.cspan = trace.NoSpan, trace.NoSpan
			x.pidx, x.cidx = -1, -1
		}()
	}
	rows := p.ScanRows(x.g)
	chunkElems := x.chunkEff
	if x.flags.wholeInput || rows == 0 || chunkElems > rows {
		chunkElems = rows
	}
	chunks := 1
	if rows > 0 && chunkElems > 0 {
		chunks = (rows + chunkElems - 1) / chunkElems
	}
	singlePass := chunks == 1

	x.perChunkAllocs = nil
	x.pipelineAllocs = nil
	x.counts = make(map[graph.NodeID]devmem.BufferID)
	x.staging = make(map[graph.NodeID][]devmem.BufferID)

	// ---- Stage phase: accumulators, count buffers, reusable staging and
	// scratch (Algorithm 3's first loop).
	if err := x.stagePhase(p, rows, chunkElems, singlePass); err != nil {
		return err
	}

	// ---- Copy/compute phase.
	if rows == 0 && len(p.Scans) > 0 {
		// A zero-row scan pipeline streams nothing: no chunk is staged and
		// no primitive launches. Accumulators keep their initialized state
		// (a sum over nothing is the init value) and streamed results are
		// pinned to empty so collection does not look for dead ports.
		x.emptyStreamedResults(p)
		return x.deletePhase()
	}
	primary, err := x.primaryDevice(p)
	if err != nil {
		return err
	}
	// Shallow pipelines (fewer than 1.5 kernels per streamed column — a
	// breaker straight after the transfer, like Q4's hash build) leave the
	// SDK no work to enqueue between pinned writes, triggering the
	// re-mapping pathology some drivers exhibit (the paper's Q4/OpenCL
	// case).
	shallow := len(p.Scans) > 0 && 2*len(p.Nodes) < 3*len(p.Scans)
	// chunkDone[s] is the completion of the chunk last staged in slot s;
	// a slot cannot be overwritten before its previous occupant finished.
	chunkDone := make([]vclock.Time, x.opts.stagingBuffers())
	for c := 0; c < chunks; c++ {
		// Chunk boundaries are the cancellation points: the previous
		// chunk's operations are fully issued and no buffer is in a
		// half-staged state.
		if err := x.checkCtx(); err != nil {
			return err
		}
		off := c * chunkElems
		n := rows - off
		if chunkElems > 0 && n > chunkElems {
			n = chunkElems
		}
		if rows == 0 {
			n = 0
		}
		x.chunksTotal++
		if x.rec != nil {
			x.cidx = c
			x.cspan = x.rec.Add(trace.Span{
				Parent: x.pspan, Kind: trace.KindChunk,
				Label: fmt.Sprintf("chunk %d", c),
				Start: x.horizon, End: x.horizon,
				Node: -1, Pipeline: p.Index, Chunk: c,
			})
		}

		// Stage this chunk's scan columns.
		slotFree := chunkDone[c%len(chunkDone)]
		if err := x.stageChunk(p, c, off, n, slotFree, shallow); err != nil {
			return err
		}

		// Execute every primitive of the pipeline over the chunk.
		var chunkEnd vclock.Time
		for _, nid := range p.Nodes {
			end, err := x.execNode(x.g.Node(nid), n, int64(off), singlePass)
			if err != nil {
				return err
			}
			if end > chunkEnd {
				chunkEnd = end
			}
		}
		chunkDone[c%len(chunkDone)] = chunkEnd

		// Per-chunk results concatenate on the host.
		if !singlePass {
			if err := x.appendChunkResults(p); err != nil {
				return err
			}
		}

		// Naive models release this chunk's allocations immediately.
		x.setOp(-1, "free chunk")
		for _, a := range x.perChunkAllocs {
			if err := x.free(a.dev, a.buf); err != nil {
				return err
			}
			if a.hasRef {
				delete(x.ports, a.ref)
			}
		}
		x.perChunkAllocs = nil

		if x.flags.syncPerChunk {
			x.setOp(-1, "chunk handshake")
			end := primary.Sync(x.ready(chunkEnd))
			x.advance(end)
		}
		if x.rec != nil {
			x.cspan, x.cidx = trace.NoSpan, -1
		}
	}

	return x.deletePhase()
}

// deletePhase releases pipeline-scoped buffers; accumulators and
// single-pass outputs stay for downstream pipelines and results.
func (x *executor) deletePhase() error {
	x.setOp(-1, "delete phase")
	for _, a := range x.pipelineAllocs {
		if err := x.free(a.dev, a.buf); err != nil {
			return err
		}
	}
	x.pipelineAllocs = nil
	return nil
}

// emptyStreamedResults registers empty host builders for every streamed
// (non-accumulating) result produced inside the pipeline, so a zero-row
// pipeline still yields its result columns — with zero rows.
func (x *executor) emptyStreamedResults(p *graph.Pipeline) {
	for _, r := range x.g.Results() {
		node := x.g.Node(r.Ref.Node)
		if node.IsScan() || node.Task.Accumulate {
			continue
		}
		for _, nid := range p.Nodes {
			if nid != r.Ref.Node {
				continue
			}
			if x.builders[r.Ref] == nil {
				x.builders[r.Ref] = newHostAccum(node.OutputSpec(r.Ref.Port).Type)
			}
			break
		}
	}
}

// primaryDevice is the device the pipeline's tasks run on (used for the
// per-chunk thread handshake).
func (x *executor) primaryDevice(p *graph.Pipeline) (*seam, error) {
	if len(p.Nodes) == 0 {
		return nil, fmt.Errorf("%w: pipeline %d has no tasks", graph.ErrBadGraph, p.Index)
	}
	_, d, err := x.device(x.g.Node(p.Nodes[0]).Device)
	return d, err
}

func (x *executor) stagePhase(p *graph.Pipeline, rows, chunkElems int, singlePass bool) error {
	// Accumulators and count buffers.
	for _, nid := range p.Nodes {
		n := x.g.Node(nid)
		t := n.Task
		dev, d, err := x.device(n.Device)
		if err != nil {
			return err
		}
		if t.Accumulate {
			x.setOp(nid, "accumulator")
			for port, spec := range t.Outputs {
				size := spec.Size.Elements(rows)
				buf, done, err := d.PrepareMemory(spec.Type, size, x.ready(x.base))
				if err != nil {
					return fmt.Errorf("%s: accumulator: %w", n, err)
				}
				x.track(dev, buf)
				x.advance(done)
				ps := &portState{dev: dev, buf: buf, capacity: size, n: size, ready: done, persistent: true}
				x.ports[graph.PortRef{Node: nid, Port: port}] = ps
				if t.InitKernel != "" {
					end, err := d.Execute(device.ExecRequest{
						Kernel: t.InitKernel,
						Args:   []devmem.BufferID{buf},
						Params: t.InitParams,
					}, x.ready(done))
					if err != nil {
						return fmt.Errorf("%s: init %s: %w", n, t.InitKernel, err)
					}
					ps.ready = end
					x.advance(end)
				}
			}
		}
		if t.EmitsCount {
			x.setOp(nid, "count buffer")
			buf, done, err := d.PrepareMemory(vec.Int64, 1, x.ready(x.base))
			if err != nil {
				return fmt.Errorf("%s: count buffer: %w", n, err)
			}
			x.track(dev, buf)
			x.advance(done)
			x.counts[nid] = buf
			x.pipelineAllocs = append(x.pipelineAllocs, alloc{dev: dev, buf: buf})
		}
	}

	// Base columns through the cross-query buffer pool: every model first
	// offers each scan to the pool. A leased column supersedes the model's
	// own staging — whole-input reads it directly, the chunked models view
	// chunks out of the resident column instead of re-shipping them — and
	// is pool-owned, so it appears in neither live nor the delete phase.
	if rows > 0 && x.opts.Pool != nil {
		for _, sid := range p.Scans {
			n := x.g.Node(sid)
			lease, ok, err := x.poolScan(sid, n)
			if err != nil {
				return fmt.Errorf("%s: pool: %w", n, err)
			}
			if !ok {
				continue
			}
			if x.flags.wholeInput {
				x.ports[graph.PortRef{Node: sid, Port: 0}] = &portState{
					dev: x.resolve(n.Device), buf: lease.Buffer(),
					capacity: rows, n: rows,
					ready: vclock.MaxTime(x.base, lease.Ready()),
				}
			}
		}
	}

	// Reusable staging double buffers (Figure 8).
	if x.flags.reuseStaging && !x.flags.wholeInput && rows > 0 {
		for _, sid := range p.Scans {
			if x.poolPorts[sid] != nil {
				continue
			}
			n := x.g.Node(sid)
			dev, d, err := x.device(n.Device)
			if err != nil {
				return err
			}
			x.setOp(sid, "staging "+n.Scan.Name)
			bufs := make([]devmem.BufferID, x.opts.stagingBuffers())
			for i := range bufs {
				var buf devmem.BufferID
				var done vclock.Time
				if x.flags.pinnedStaging {
					buf, done, err = d.AddPinnedMemory(n.Scan.Data.Type(), chunkElems, x.ready(x.base))
				} else {
					buf, done, err = d.PrepareMemory(n.Scan.Data.Type(), chunkElems, x.ready(x.base))
				}
				if err != nil {
					return fmt.Errorf("%s: staging: %w", n, err)
				}
				x.track(dev, buf)
				x.advance(done)
				bufs[i] = buf
				x.pipelineAllocs = append(x.pipelineAllocs, alloc{dev: dev, buf: buf})
			}
			x.staging[sid] = bufs
		}
	}

	// Whole-input staging (operator-at-a-time).
	if x.flags.wholeInput && rows > 0 {
		for _, sid := range p.Scans {
			if x.poolPorts[sid] != nil {
				continue
			}
			n := x.g.Node(sid)
			dev, d, err := x.device(n.Device)
			if err != nil {
				return err
			}
			x.setOp(sid, "place "+n.Scan.Name)
			buf, end, err := d.PlaceData(n.Scan.Data, x.ready(x.base))
			if err != nil {
				return fmt.Errorf("%s: place: %w", n, err)
			}
			x.track(dev, buf)
			x.advance(end)
			x.ports[graph.PortRef{Node: sid, Port: 0}] = &portState{
				dev: dev, buf: buf, capacity: rows, n: rows, ready: end,
			}
			x.pipelineAllocs = append(x.pipelineAllocs, alloc{dev: dev, buf: buf})
		}
	}

	// Reusable scratch for non-accumulating outputs.
	if x.flags.stagedScratch && !x.flags.wholeInput {
		per := chunkElems
		if rows == 0 {
			per = 0
		}
		for _, nid := range p.Nodes {
			n := x.g.Node(nid)
			t := n.Task
			if t.Accumulate {
				continue
			}
			dev, d, err := x.device(n.Device)
			if err != nil {
				return err
			}
			x.setOp(nid, "scratch")
			for port, spec := range t.Outputs {
				size := spec.Size.Elements(per)
				if size <= 0 {
					size = 1
				}
				buf, done, err := d.PrepareMemory(spec.Type, size, x.ready(x.base))
				if err != nil {
					return fmt.Errorf("%s: scratch: %w", n, err)
				}
				x.track(dev, buf)
				x.advance(done)
				x.ports[graph.PortRef{Node: nid, Port: port}] = &portState{
					dev: dev, buf: buf, capacity: size, ready: done, persistent: singlePass,
				}
				if !singlePass {
					x.pipelineAllocs = append(x.pipelineAllocs, alloc{dev: dev, buf: buf})
				}
			}
		}
	}
	return nil
}

// stageChunk transfers chunk c of every scan column to the device.
func (x *executor) stageChunk(p *graph.Pipeline, c, off, n int, slotFree vclock.Time, shallow bool) error {
	if n <= 0 {
		return nil
	}
	if x.flags.wholeInput {
		// Columns are already resident; narrow the ports to full length.
		return nil
	}
	for _, sid := range p.Scans {
		node := x.g.Node(sid)
		dev, d, err := x.device(node.Device)
		if err != nil {
			return err
		}
		hostChunk := node.Scan.Data.Slice(off, off+n)
		ref := graph.PortRef{Node: sid, Port: 0}
		x.setOp(sid, "stage "+node.Scan.Name)

		if lease := x.poolPorts[sid]; lease != nil {
			// The whole column is pool-resident: the chunk is a free view
			// into it, not a transfer. The view is query-owned (freed per
			// chunk); the column stays pooled.
			view, err := d.CreateChunk(lease.Buffer(), off, n)
			if err != nil {
				return fmt.Errorf("%s: view chunk %d: %w", node, c, err)
			}
			x.track(dev, view)
			x.ports[ref] = &portState{
				dev: dev, buf: view, capacity: n, n: n,
				ready: vclock.MaxTime(x.base, lease.Ready()),
			}
			x.perChunkAllocs = append(x.perChunkAllocs, alloc{dev: dev, buf: view, ref: ref, hasRef: true})
			continue
		}

		if x.flags.reuseStaging {
			slots := x.staging[sid]
			buf := slots[c%len(slots)]
			// The slot must not be overwritten before the chunk that
			// previously occupied it has been fully processed.
			end, err := d.PlaceDataInto(buf, 0, hostChunk, x.ready(slotFree))
			if err != nil {
				return fmt.Errorf("%s: stage chunk %d: %w", node, c, err)
			}
			if pen := d.Info().PinnedRemapPenalty; x.flags.pinnedStaging && shallow && pen > 0 {
				// The driver re-maps the pinned region synchronously:
				// effectively the transfer happens again, pen times.
				for r := 0; r < int(pen+0.5); r++ {
					end, err = d.PlaceDataInto(buf, 0, hostChunk, end)
					if err != nil {
						return fmt.Errorf("%s: remap chunk %d: %w", node, c, err)
					}
				}
			}
			x.advance(end)
			x.ports[ref] = &portState{dev: dev, buf: buf, capacity: cap0(x.chunkEff), n: n, ready: end, persistent: true}
			continue
		}

		// Naive: fresh allocation and transfer per chunk (Algorithm 1).
		buf, end, err := d.PlaceData(hostChunk, x.ready(x.base))
		if err != nil {
			return fmt.Errorf("%s: stage chunk %d: %w", node, c, err)
		}
		x.track(dev, buf)
		x.advance(end)
		x.ports[ref] = &portState{dev: dev, buf: buf, capacity: n, n: n, ready: end}
		x.perChunkAllocs = append(x.perChunkAllocs, alloc{dev: dev, buf: buf, ref: ref, hasRef: true})
	}
	return nil
}

func cap0(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

// execNode launches one primitive over the current chunk.
func (x *executor) execNode(n *graph.Node, chunkN int, chunkBase int64, singlePass bool) (vclock.Time, error) {
	t := n.Task
	dev, d, err := x.device(n.Device)
	if err != nil {
		return 0, err
	}

	var args []devmem.BufferID
	var views []devmem.BufferID
	dataReady := x.base

	// Input arguments: route cross-device data, then narrow each buffer
	// to its logical chunk length.
	inputNs := make([]int, 0, len(n.Inputs()))
	for i, e := range n.Inputs() {
		ref := graph.PortRef{Node: e.From, Port: e.FromPort}
		ps, ok := x.ports[ref]
		if !ok {
			return 0, fmt.Errorf("%s: input %d (%s) not materialized", n, i, e)
		}
		if ps.dev != dev {
			// Route through the wrapped endpoints so transfer faults on
			// either leg are retried like any other transfer.
			_, sd, err := x.device(ps.dev)
			if err != nil {
				return 0, err
			}
			x.setOp(e.From, "route")
			buf, end, err := hub.RouteBetween(sd, d, ps.buf, ps.n, x.ready(ps.ready))
			if err != nil {
				return 0, fmt.Errorf("%s: route input %d: %w", n, i, err)
			}
			x.track(dev, buf)
			x.advance(end)
			routed := *ps
			routed.dev = dev
			routed.buf = buf
			routed.capacity = ps.n
			routed.ready = end
			ps = &routed
			x.ports[ref] = ps
		}
		inputNs = append(inputNs, ps.n)
		arg := ps.buf
		if ps.n != ps.capacity {
			view, err := d.CreateChunk(ps.buf, 0, ps.n)
			if err != nil {
				return 0, fmt.Errorf("%s: view input %d: %w", n, i, err)
			}
			x.track(dev, view)
			views = append(views, view)
			arg = view
		}
		args = append(args, arg)
		if ps.ready > dataReady {
			dataReady = ps.ready
		}
	}

	// Output arguments.
	type outInfo struct {
		ref  graph.PortRef
		ps   *portState
		spec task.OutputSpec
	}
	outs := make([]outInfo, 0, len(t.Outputs))
	for port, spec := range t.Outputs {
		ref := graph.PortRef{Node: n.ID, Port: port}
		ps, ok := x.ports[ref]
		if !ok {
			// Per-chunk allocation (naive models).
			x.setOp(n.ID, "output")
			size := spec.Size.Elements(chunkN)
			if size <= 0 {
				size = 1
			}
			buf, done, err := d.PrepareMemory(spec.Type, size, x.ready(dataReady))
			if err != nil {
				return 0, fmt.Errorf("%s: output %d: %w", n, port, err)
			}
			x.track(dev, buf)
			if done > dataReady {
				dataReady = done
			}
			x.advance(done)
			ps = &portState{dev: dev, buf: buf, capacity: size, ready: done, persistent: singlePass && !x.flags.wholeInput}
			x.ports[ref] = ps
			if !singlePass && !t.Accumulate {
				x.perChunkAllocs = append(x.perChunkAllocs, alloc{dev: dev, buf: buf, ref: ref, hasRef: true})
			}
		}
		// Logical output length: input-sized ports follow the logical
		// length of their designated input port; fixed and estimated
		// ports expose capacity until a count narrows them.
		switch spec.Size.Kind {
		case task.SizeInput:
			port := spec.Size.N
			if port >= len(inputNs) {
				port = 0
			}
			if len(inputNs) > 0 {
				ps.n = inputNs[port]
			} else {
				ps.n = chunkN
			}
		default:
			ps.n = ps.capacity
		}
		if ps.ready > dataReady {
			dataReady = ps.ready // accumulators: wait for previous fold
		}
		arg := ps.buf
		if ps.n != ps.capacity {
			view, err := d.CreateChunk(ps.buf, 0, ps.n)
			if err != nil {
				return 0, fmt.Errorf("%s: view output %d: %w", n, port, err)
			}
			x.track(dev, view)
			views = append(views, view)
			arg = view
		}
		args = append(args, arg)
		outs = append(outs, outInfo{ref: ref, ps: ps, spec: spec})
	}
	if t.EmitsCount {
		args = append(args, x.counts[n.ID])
	}

	// Scalar parameters, with the chunk's global base row injected where
	// the kernel needs global positions.
	params := t.Params
	if t.ChunkBaseParam >= 0 {
		params = append([]int64(nil), t.Params...)
		params[t.ChunkBaseParam] = chunkBase
	}

	x.setOp(n.ID, t.Kernel)
	end, err := d.Execute(device.ExecRequest{Kernel: t.Kernel, Args: args, Params: params}, x.ready(dataReady))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", n, err)
	}
	x.advance(end)
	if x.rec != nil && x.lastKernel != trace.NoSpan {
		// Input cardinality: the work this launch processed. The cost
		// catalog normalizes rates by this, not by the output Rows.
		units := int64(chunkN)
		for _, in := range inputNs {
			if int64(in) > units {
				units = int64(in)
			}
		}
		x.rec.SetUnits(x.lastKernel, units)
	}
	for _, o := range outs {
		o.ps.ready = end
	}

	// Retrieve the result cardinality and narrow the counted ports: the
	// host must know how much of the estimated output is real before it
	// can launch dependent kernels.
	if t.EmitsCount {
		x.setOp(n.ID, "count")
		host := vec.New(vec.Int64, 1)
		cend, err := d.RetrieveData(x.counts[n.ID], 0, 1, host, end)
		if err != nil {
			return 0, fmt.Errorf("%s: retrieve count: %w", n, err)
		}
		x.advance(cend)
		count := int(host.I64()[0])
		for _, port := range t.CountSets {
			ps := x.ports[graph.PortRef{Node: n.ID, Port: port}]
			if count > ps.capacity {
				return 0, fmt.Errorf("%s: count %d exceeds output capacity %d", n, count, ps.capacity)
			}
			ps.n = count
			ps.ready = cend
		}
		end = cend
	}

	// The kernel's result cardinality is known only now: streamed outputs
	// narrow to the count, everything else keeps its logical length.
	if x.rec != nil && x.lastKernel != trace.NoSpan {
		if ps0, ok := x.ports[graph.PortRef{Node: n.ID, Port: 0}]; ok {
			x.rec.SetRows(x.lastKernel, int64(ps0.n))
		}
		x.lastKernel = trace.NoSpan
	}

	// Views were only needed to shape this launch.
	x.setOp(n.ID, "free view")
	for _, v := range views {
		if err := x.free(dev, v); err != nil {
			return 0, err
		}
	}

	// Whole-input mode frees intermediates after their last consumer.
	if x.flags.wholeInput {
		if err := x.releaseDeadInputs(n); err != nil {
			return 0, err
		}
	}

	if x.opts.Trace {
		x.trace = append(x.trace, FootprintSample{Label: n.String(), Bytes: x.deviceBytes()})
	}
	return end, nil
}

func (x *executor) releaseDeadInputs(n *graph.Node) error {
	for _, e := range n.Inputs() {
		ref := graph.PortRef{Node: e.From, Port: e.FromPort}
		x.pendingUses[ref]--
		if x.pendingUses[ref] > 0 {
			continue
		}
		ps := x.ports[ref]
		if ps == nil || ps.persistent || x.isResult(ref) {
			continue
		}
		src := x.g.Node(e.From)
		if src.IsScan() {
			continue // freed in the delete phase
		}
		if src.Task != nil && src.Task.Accumulate {
			continue
		}
		x.setOp(e.From, "free dead input")
		if err := x.free(ps.dev, ps.buf); err != nil {
			return err
		}
		delete(x.ports, ref)
		if x.opts.Trace {
			x.trace = append(x.trace, FootprintSample{Label: "free " + src.String(), Bytes: x.deviceBytes()})
		}
	}
	return nil
}

func (x *executor) isResult(ref graph.PortRef) bool {
	for _, r := range x.g.Results() {
		if r.Ref == ref || (r.Avg && r.Count == ref) {
			return true
		}
	}
	return false
}

func (x *executor) deviceBytes() int64 {
	var total int64
	for _, d := range x.rt.Devices() {
		total += d.MemStats().Used
	}
	return total
}

// appendChunkResults concatenates per-chunk result ports on the host.
func (x *executor) appendChunkResults(p *graph.Pipeline) error {
	for _, r := range x.g.Results() {
		node := x.g.Node(r.Ref.Node)
		if node.IsScan() || node.Task.Accumulate {
			continue
		}
		inPipeline := false
		for _, nid := range p.Nodes {
			if nid == r.Ref.Node {
				inPipeline = true
				break
			}
		}
		if !inPipeline {
			continue
		}
		ps := x.ports[r.Ref]
		if ps == nil {
			continue
		}
		if ps.n == 0 {
			if x.builders[r.Ref] == nil {
				x.builders[r.Ref] = newHostAccum(node.OutputSpec(r.Ref.Port).Type)
			}
			continue
		}
		_, d, err := x.device(ps.dev)
		if err != nil {
			return err
		}
		x.setOp(r.Ref.Node, "result "+r.Name)
		host := vec.New(node.OutputSpec(r.Ref.Port).Type, ps.n)
		end, err := d.RetrieveData(ps.buf, 0, ps.n, host, x.ready(ps.ready))
		if err != nil {
			return fmt.Errorf("result %q: %w", r.Name, err)
		}
		x.advance(end)
		if x.builders[r.Ref] == nil {
			x.builders[r.Ref] = newHostAccum(host.Type())
		}
		if err := x.builders[r.Ref].append(host); err != nil {
			return fmt.Errorf("result %q: %w", r.Name, err)
		}
	}
	return nil
}

// collectResult retrieves one named result to the host. AVG results
// retrieve their SUM and COUNT partials and finalize the division here —
// after aggregation, so sharded runs can merge raw partials first and share
// the same finalization.
func (x *executor) collectResult(r graph.Result) (ResultColumn, error) {
	if r.Avg {
		sum, err := x.collectPort(r.Ref, r.Name)
		if err != nil {
			return ResultColumn{}, err
		}
		count, err := x.collectPort(r.Count, r.Name)
		if err != nil {
			return ResultColumn{}, err
		}
		if sum.Type() != vec.Int64 || sum.Len() != 1 || count.Type() != vec.Int64 || count.Len() != 1 {
			return ResultColumn{}, fmt.Errorf("exec: avg result %q needs int64 scalar sum and count partials", r.Name)
		}
		avg := FinalizeAvg(sum.I64()[0], count.I64()[0])
		return ResultColumn{Name: r.Name, Data: vec.FromFloat64([]float64{avg})}, nil
	}
	v, err := x.collectPort(r.Ref, r.Name)
	if err != nil {
		return ResultColumn{}, err
	}
	return ResultColumn{Name: r.Name, Data: v}, nil
}

// collectPort retrieves the raw contents of one result port.
func (x *executor) collectPort(ref graph.PortRef, name string) (vec.Vector, error) {
	r := graph.Result{Name: name, Ref: ref}
	if b, ok := x.builders[r.Ref]; ok {
		return b.vec(), nil
	}
	ps, ok := x.ports[r.Ref]
	if !ok {
		return vec.Vector{}, fmt.Errorf("exec: result %q was never materialized", r.Name)
	}
	if ps.n == 0 {
		// Canonical empty: the same nil-backed vector the per-chunk
		// accumulation path produces, so a zero-row result is bit-identical
		// across execution models.
		node := x.g.Node(r.Ref.Node)
		return newHostAccum(node.OutputSpec(r.Ref.Port).Type).vec(), nil
	}
	_, d, err := x.device(ps.dev)
	if err != nil {
		return vec.Vector{}, err
	}
	node := x.g.Node(r.Ref.Node)
	x.setOp(r.Ref.Node, "result "+r.Name)
	host := vec.New(node.OutputSpec(r.Ref.Port).Type, ps.n)
	end, err := d.RetrieveData(ps.buf, 0, ps.n, host, x.ready(ps.ready))
	if err != nil {
		return vec.Vector{}, fmt.Errorf("exec: retrieve result %q: %w", r.Name, err)
	}
	x.advance(end)
	return host, nil
}

// FinalizeAvg turns merged SUM and COUNT partials into the AVG value; a
// zero count (no qualifying rows) finalizes to 0 rather than NaN so the
// result is deterministic and comparable bit for bit.
func FinalizeAvg(sum, count int64) float64 {
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

// hostAccum concatenates per-chunk result fragments on the host.
type hostAccum struct {
	t   vec.Type
	i32 []int32
	i64 []int64
	f64 []float64
}

func newHostAccum(t vec.Type) *hostAccum { return &hostAccum{t: t} }

func (h *hostAccum) append(v vec.Vector) error {
	if v.Type() != h.t {
		return fmt.Errorf("exec: result fragment type %s, want %s", v.Type(), h.t)
	}
	switch h.t {
	case vec.Int32:
		h.i32 = append(h.i32, v.I32()...)
	case vec.Int64:
		h.i64 = append(h.i64, v.I64()...)
	case vec.Float64:
		h.f64 = append(h.f64, v.F64()...)
	default:
		return fmt.Errorf("exec: cannot concatenate %s results across chunks", h.t)
	}
	return nil
}

func (h *hostAccum) vec() vec.Vector {
	switch h.t {
	case vec.Int32:
		return vec.FromInt32(h.i32)
	case vec.Int64:
		return vec.FromInt64(h.i64)
	case vec.Float64:
		return vec.FromFloat64(h.f64)
	default:
		return vec.Vector{}
	}
}
