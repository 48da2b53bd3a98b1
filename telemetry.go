package adamant

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/profile"
	"github.com/adamant-db/adamant/internal/telemetry"
	"github.com/adamant-db/adamant/internal/vclock"
)

// TelemetryConfig parameterizes the engine's live observability layer (see
// WithTelemetry). The zero value uses the documented defaults everywhere.
type TelemetryConfig struct {
	// EventCapacity bounds the structured event ring (default 4096). Older
	// events are evicted, but per-type lifetime totals keep counting.
	EventCapacity int
	// FlightCapacity bounds the flight recorder's per-query digest ring
	// (default 256).
	FlightCapacity int
	// SlowThreshold is the virtual elapsed time at or above which the
	// flight recorder retains a query's full span trace (the slow-query
	// log). Zero disables the latency trigger; errored, degraded, and
	// failed-over queries are always retained in full.
	SlowThreshold time.Duration
	// UtilWindows is the number of virtual-time windows the utilization
	// heat strip renders (default 60).
	UtilWindows int
}

// DefaultUtilWindows is the heat-strip width when TelemetryConfig leaves
// UtilWindows zero.
const DefaultUtilWindows = 60

// engineTelemetry bundles the four telemetry components plus the metric
// handles the per-query observation path writes to.
type engineTelemetry struct {
	reg    *telemetry.Registry
	sink   *telemetry.EventSink
	util   *telemetry.UtilTracker
	flight *telemetry.FlightRecorder

	utilWindows int
	nextQuery   atomic.Uint64

	queries   *telemetry.Counter
	errors    *telemetry.Counter
	elapsed   *telemetry.Histogram
	h2dBytes  *telemetry.Histogram
	d2hBytes  *telemetry.Histogram
	chunks    *telemetry.Counter
	retries   *telemetry.Counter
	failovers *telemetry.Counter
	degrades  *telemetry.Counter

	cacheHits        *telemetry.Counter
	cacheMisses      *telemetry.Counter
	cacheJoins       *telemetry.Counter
	cacheEvictions   *telemetry.Counter
	cacheInvalidates *telemetry.Counter
	cacheBytes       *telemetry.Gauge
	cacheRatio       *telemetry.Gauge

	autoplanQueries *telemetry.Counter
	autoplanReplans *telemetry.Counter
	autoplanEntries *telemetry.Gauge

	shardQueries   *telemetry.Counter
	shardHedges    *telemetry.Counter
	shardHedgeWins *telemetry.Counter
	shardFailovers *telemetry.Counter
	shardLost      *telemetry.Counter
	shardPartial   *telemetry.Counter

	events      *telemetry.Counter
	running     *telemetry.Gauge
	queued      *telemetry.Gauge
	quarantined *telemetry.Gauge
	memUsed     *telemetry.Gauge
	memPeak     *telemetry.Gauge
	busyNS      *telemetry.Counter
	devLaunches *telemetry.Counter
	devH2D      *telemetry.Counter
	devD2H      *telemetry.Counter
}

// elapsedBuckets spans the virtual latencies this simulation produces:
// 100µs to 100s, one decade per bucket (values are nanoseconds).
var elapsedBuckets = []float64{1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11}

// byteBuckets spans per-query transfer volumes: 64KiB to 64GiB.
var byteBuckets = []float64{1 << 16, 1 << 20, 1 << 24, 1 << 28, 1 << 32, 1 << 36}

// WithTelemetry arms the engine's observability layer — metric registry,
// event sink, utilization tracker, and flight recorder — and returns the
// engine for chaining:
//
//	eng := adamant.NewEngine().WithTelemetry(adamant.TelemetryConfig{})
//
// Telemetry never perturbs execution: virtual timings, traces, and results
// are bit-identical with and without it, and the disabled state (never
// calling WithTelemetry) adds zero allocations to the hot path.
func (e *Engine) WithTelemetry(cfg TelemetryConfig) *Engine {
	reg := telemetry.NewRegistry()
	t := &engineTelemetry{
		reg:         reg,
		sink:        telemetry.NewEventSink(cfg.EventCapacity),
		util:        telemetry.NewUtilTracker(),
		flight:      telemetry.NewFlightRecorder(cfg.FlightCapacity, vclock.DurationOf(cfg.SlowThreshold)),
		utilWindows: cfg.UtilWindows,

		queries:   reg.Counter("adamant_queries_total", "Queries executed, by primary device, execution model and driver.", "device", "model", "driver"),
		errors:    reg.Counter("adamant_query_errors_total", "Queries that finished with an error.", "device", "model", "driver"),
		elapsed:   reg.Histogram("adamant_query_elapsed_ns", "Virtual query latency in nanoseconds.", elapsedBuckets, "device", "model", "driver"),
		h2dBytes:  reg.Histogram("adamant_query_h2d_bytes", "Host-to-device bytes moved per query.", byteBuckets, "device", "model", "driver"),
		d2hBytes:  reg.Histogram("adamant_query_d2h_bytes", "Device-to-host bytes moved per query.", byteBuckets, "device", "model", "driver"),
		chunks:    reg.Counter("adamant_chunks_total", "Chunk iterations executed.", "model"),
		retries:   reg.Counter("adamant_retries_total", "Device operations re-issued after transient faults.", "model"),
		failovers: reg.Counter("adamant_failovers_total", "Queries re-placed off a lost device.", "model"),
		degrades:  reg.Counter("adamant_degrades_total", "Adaptive OOM degradation steps.", "model"),

		cacheHits:        reg.Counter("adamant_cache_hits_total", "Buffer-pool lookups served from a resident column."),
		cacheMisses:      reg.Counter("adamant_cache_misses_total", "Buffer-pool lookups that loaded the column cold."),
		cacheJoins:       reg.Counter("adamant_cache_shared_joins_total", "Buffer-pool lookups that joined another query's in-flight transfer."),
		cacheEvictions:   reg.Counter("adamant_cache_evictions_total", "Columns evicted from the buffer pool."),
		cacheInvalidates: reg.Counter("adamant_cache_invalidations_total", "Device-wide buffer-pool invalidations (death/quarantine)."),
		cacheBytes:       reg.Gauge("adamant_cache_bytes", "Bytes currently held by the buffer pool."),
		cacheRatio:       reg.Gauge("adamant_cache_hit_ratio", "Lifetime buffer-pool hit ratio (hits+joins over all lookups)."),

		autoplanQueries: reg.Counter("adamant_autoplan_total", "Auto-planned queries, by chosen device and execution model.", "device", "model"),
		autoplanReplans: reg.Counter("adamant_autoplan_replans_total", "Mid-query re-plan restarts taken by auto-planned queries.", "model"),
		autoplanEntries: reg.Gauge("adamant_autoplan_catalog_entries", "Entries in the learned cost catalog."),

		shardQueries:   reg.Counter("adamant_shard_queries_total", "Queries executed scattered over the shard fleet.", "model"),
		shardHedges:    reg.Counter("adamant_shard_hedges_total", "Partitions that launched a hedged duplicate attempt."),
		shardHedgeWins: reg.Counter("adamant_shard_hedge_wins_total", "Partitions whose hedged duplicate finished first."),
		shardFailovers: reg.Counter("adamant_shard_failovers_total", "Partitions re-dispatched after their shard died."),
		shardLost:      reg.Counter("adamant_shard_lost_total", "Partitions lost unrecoverably (Partial loss mode)."),
		shardPartial:   reg.Counter("adamant_shard_partial_queries_total", "Queries that returned explicitly flagged partial results."),

		events:      reg.Counter("adamant_events_total", "Telemetry events emitted, by type (lifetime, survives ring eviction).", "type"),
		running:     reg.Gauge("adamant_sessions_running", "Admitted sessions currently executing."),
		queued:      reg.Gauge("adamant_sessions_queued", "Sessions waiting in the admission queue."),
		quarantined: reg.Gauge("adamant_devices_quarantined", "Devices currently quarantined."),
		memUsed:     reg.Gauge("adamant_device_mem_used_bytes", "Device memory currently allocated.", "device"),
		memPeak:     reg.Gauge("adamant_device_mem_peak_bytes", "High-water device memory.", "device"),
		busyNS:      reg.Counter("adamant_device_busy_ns", "Cumulative engine busy virtual time.", "device", "engine"),
		devLaunches: reg.Counter("adamant_device_launches_total", "Kernel launches per device.", "device"),
		devH2D:      reg.Counter("adamant_device_h2d_bytes_total", "Host-to-device bytes per device.", "device"),
		devD2H:      reg.Counter("adamant_device_d2h_bytes_total", "Device-to-host bytes per device.", "device"),
	}
	if t.utilWindows <= 0 {
		t.utilWindows = DefaultUtilWindows
	}
	// Gauges and device-sourced totals are copied whole at scrape time:
	// their truth lives in the scheduler, memory pools, and device stats.
	reg.OnScrape(func(*telemetry.Registry) { e.collectTelemetry() })
	e.tele = t
	e.sched.SetEvents(t.sink)
	if e.pool != nil {
		e.pool.SetEvents(t.sink)
	}
	return e
}

// collectTelemetry refreshes the scrape-time metrics from their owners.
func (e *Engine) collectTelemetry() {
	t := e.tele
	st := e.sched.Stats()
	t.running.Set(float64(st.Running))
	t.queued.Set(float64(st.Queued))
	t.quarantined.Set(float64(len(e.sched.Quarantined())))
	for ty, n := range t.sink.Totals() {
		t.events.Set(float64(n), string(ty))
	}
	if e.catalog != nil {
		t.autoplanEntries.Set(float64(e.catalog.Len()))
	}
	if e.pool != nil {
		cs := e.pool.Stats()
		t.cacheHits.Set(float64(cs.Hits))
		t.cacheMisses.Set(float64(cs.Misses))
		t.cacheJoins.Set(float64(cs.SharedJoins))
		t.cacheEvictions.Set(float64(cs.Evictions))
		t.cacheInvalidates.Set(float64(cs.Invalidations))
		t.cacheBytes.Set(float64(cs.CachedBytes))
		t.cacheRatio.Set(cs.HitRatio())
	}
	for _, d := range e.rt.Devices() {
		name := d.Info().Name
		ms := d.MemStats()
		t.memUsed.Set(float64(ms.Used), name)
		t.memPeak.Set(float64(ms.Peak), name)
		ds := d.Stats()
		t.devLaunches.Set(float64(ds.Launches), name)
		t.devH2D.Set(float64(ds.H2DBytes), name)
		t.devD2H.Set(float64(ds.D2HBytes), name)
		t.busyNS.Set(float64(d.CopyEngine().Busy()), name, "copy")
		t.busyNS.Set(float64(d.ComputeEngine().Busy()), name, "compute")
	}
}

// vtNow is the engine's virtual horizon: the latest availability across
// every plugged device engine — on a sharded engine, across every shard's
// devices (each shard runs its own clocks) — i.e. the virtual time up to
// which the simulation has advanced. Events are stamped with it.
func (e *Engine) vtNow() vclock.Time {
	var t vclock.Time
	scan := func(rt *hub.Runtime) {
		for _, d := range rt.Devices() {
			if a := d.CopyEngine().Avail(); a > t {
				t = a
			}
			if a := d.ComputeEngine().Avail(); a > t {
				t = a
			}
		}
	}
	scan(e.rt)
	for s := 1; s < len(e.shardCtxs); s++ {
		scan(e.shardCtxs[s].rt)
	}
	return t
}

// primaryDevice attributes a query to a device for metric labels: the
// lowest-ID device in its demand estimate (queries here run on one device;
// the lowest ID is the plan's placement target). driver is that device's
// SDK name.
func (e *Engine) primaryDevice(demand map[device.ID]int64) (name, driver string) {
	best := device.ID(-1)
	for id := range demand {
		if best < 0 || id < best {
			best = id
		}
	}
	if best < 0 {
		return "", ""
	}
	if d, err := e.rt.Device(best); err == nil {
		info := d.Info()
		return info.Name, info.SDK
	}
	return best.String(), ""
}

// sampleUtilization folds every engine's cumulative busy counter into the
// utilization tracker, stamped at that engine's own availability horizon.
// On a sharded engine, shards 1..n-1 feed shard-labeled series so the
// heat strip shows one aligned row per shard; shard 0 is the engine's own
// runtime and keeps its unlabeled (byte-identical) rows.
func (e *Engine) sampleUtilization() {
	t := e.tele
	sample := func(shard string, rt *hub.Runtime) {
		for _, d := range rt.Devices() {
			name := d.Info().Name
			cp := d.CopyEngine()
			t.util.SampleShard(shard, name, "copy", cp.Avail(), cp.Busy())
			cm := d.ComputeEngine()
			t.util.SampleShard(shard, name, "compute", cm.Avail(), cm.Busy())
		}
	}
	sample("", e.rt)
	for s := 1; s < len(e.shardCtxs); s++ {
		sample(fmt.Sprintf("shard%d", s), e.shardCtxs[s].rt)
	}
}

// observeQueryTelemetry folds one finished query into the metric registry,
// event log, utilization tracker, fleet profiler, and flight recorder.
// res may be nil (the run failed before producing statistics); failovers
// and degrades are publishQuery's counts of the query's runtime events.
func (e *Engine) observeQueryTelemetry(q queryRun, opts exec.Options, res *exec.Result, runErr error, failovers, degrades int) {
	t := e.tele
	qid, dev, driver, model := q.id, q.dev, q.driver, opts.Model.String()
	spans := opts.Recorder.Spans()[q.mark:]
	errText := ""
	if runErr != nil {
		errText = runErr.Error()
		t.errors.Add(1, dev, model, driver)
	}
	t.queries.Add(1, dev, model, driver)

	digest := telemetry.QueryDigest{
		Query: qid, Model: model, Device: dev,
		StartNS: int64(q.startVT), Err: errText,
	}
	finish := telemetry.Event{
		Type: telemetry.EventQueryFinish, Query: qid,
		Device: dev, Model: model, Err: errText,
	}
	prec := profile.QueryRecord{
		Query: qid, Shape: q.shape, Tenant: opts.Tenant,
		Device: dev, Model: model, Err: runErr != nil, Spans: spans,
	}
	if res != nil {
		s := res.Stats
		t.elapsed.Observe(float64(s.Elapsed), dev, model, driver)
		t.h2dBytes.Observe(float64(s.H2DBytes), dev, model, driver)
		t.d2hBytes.Observe(float64(s.D2HBytes), dev, model, driver)
		t.chunks.Add(float64(s.Chunks), model)
		t.retries.Add(float64(s.Retries), model)
		t.failovers.Add(float64(failovers), model)
		t.degrades.Add(float64(degrades), model)

		digest.ElapsedNS = int64(s.Elapsed)
		digest.H2DBytes = s.H2DBytes
		digest.D2HBytes = s.D2HBytes
		digest.Chunks = s.Chunks
		digest.Pipelines = s.Pipelines
		digest.Retries = s.Retries
		digest.Failovers = failovers
		digest.Degrades = degrades
		digest.Replans = s.Replans
		finish.ElapsedNS = int64(s.Elapsed)

		prec.Elapsed = s.Elapsed
		prec.KernelTime = s.KernelTime
		prec.TransferTime = s.TransferTime
		prec.OverheadTime = s.OverheadTime
		prec.H2DBytes = s.H2DBytes
		prec.D2HBytes = s.D2HBytes
		prec.Launches = s.Launches
		prec.Retries = s.Retries
		prec.Replans = s.Replans
		prec.Failovers = failovers
		prec.Degrades = degrades
	}
	now := e.vtNow()
	finish.VT = int64(now)
	t.sink.Emit(finish)
	if e.prof != nil {
		prec.VT = now
		anomalies, alerts := e.prof.Observe(prec)
		for _, a := range anomalies {
			t.sink.Emit(telemetry.Event{
				Type: telemetry.EventPerfAnomaly, Query: qid, VT: int64(now),
				Device: a.Driver, Model: model,
				Detail: fmt.Sprintf("%s bucket %d measured %.1f ns/unit vs expected %.1f (%.1fx)",
					a.Primitive, a.Bucket, a.Measured, a.Expected, a.Factor),
			})
		}
		if len(anomalies) > 0 {
			// Force full-trace retention: the span dump is the evidence
			// that links the fleet-level anomaly to concrete operations.
			digest.Retained = "anomaly"
		}
		for _, al := range alerts {
			t.sink.Emit(telemetry.Event{
				Type: telemetry.EventSLOBurn, Query: qid, VT: int64(now), Model: model,
				Detail: fmt.Sprintf("%s window burn %.2f (%d/%d bad)", al.Window, al.Burn, al.Bad, al.Total),
			})
		}
	}
	t.flight.Record(digest, spans)
	e.sampleUtilization()
}

// observeShardTelemetry folds one sharded query's robustness outcomes into
// the adamant_shard_* metric families, and makes flagged partial answers
// visible on /events with a shard_partial event. res is nil when the
// query failed before assembling statistics.
func (e *Engine) observeShardTelemetry(qid uint64, res *exec.Result, model string) {
	t := e.tele
	if t == nil {
		return
	}
	t.shardQueries.Add(1, model)
	if res == nil {
		return
	}
	for _, s := range res.Stats.Shards {
		if s.Hedged {
			t.shardHedges.Add(1)
		}
		if s.HedgeWon {
			t.shardHedgeWins.Add(1)
		}
		if s.FailedOver {
			t.shardFailovers.Add(1)
		}
		if s.Lost {
			t.shardLost.Add(1)
		}
	}
	if parts := res.Stats.PartialShards; len(parts) > 0 {
		t.shardPartial.Add(1)
		t.sink.Emit(telemetry.Event{
			Type: telemetry.EventShardPartial, Query: qid,
			VT: int64(e.vtNow()), Model: model,
			Detail: fmt.Sprintf("partial result: lost partitions %v", parts),
		})
	}
}

// Telemetry reports whether the engine's telemetry layer is armed.
func (e *Engine) Telemetry() bool { return e.tele != nil }

// WriteProm renders the engine's metric registry in the Prometheus text
// exposition format: deterministically ordered families and series, with
// per-device, per-model and per-driver labels. Without WithTelemetry it
// writes a disabled notice.
func (e *Engine) WriteProm(w io.Writer) error {
	if e.tele == nil {
		var nilReg *telemetry.Registry
		return nilReg.WriteProm(w)
	}
	return e.tele.reg.WriteProm(w)
}

// WriteEvents dumps the retained structured events as JSON lines, oldest
// first. Without WithTelemetry it writes nothing.
func (e *Engine) WriteEvents(w io.Writer) error {
	if e.tele == nil {
		return nil
	}
	return e.tele.sink.WriteJSONL(w)
}

// EventTotals reports how many events of each type the engine has ever
// emitted (lifetime counts, unaffected by ring eviction). Nil without
// WithTelemetry.
func (e *Engine) EventTotals() map[string]uint64 {
	if e.tele == nil {
		return nil
	}
	totals := e.tele.sink.Totals()
	out := make(map[string]uint64, len(totals))
	for ty, n := range totals {
		out[string(ty)] = n
	}
	return out
}

// FlightDump writes the flight recorder's ring — recent query digests,
// with full span traces retained for errored, degraded, failed-over, and
// slow queries — as JSON. Without WithTelemetry it writes an empty dump.
func (e *Engine) FlightDump(w io.Writer) error {
	if e.tele == nil {
		var nilFlight *telemetry.FlightRecorder
		return nilFlight.WriteJSON(w)
	}
	return e.tele.flight.WriteJSON(w)
}

// FlightDigests returns the flight recorder's retained digests, oldest
// first. Nil without WithTelemetry.
func (e *Engine) FlightDigests() []telemetry.QueryDigest {
	if e.tele == nil {
		return nil
	}
	return e.tele.flight.Digests()
}

// WriteUtilization renders the per-device-engine utilization timelines as
// a deterministic text heat strip (one row per engine, one glyph per
// virtual-time window).
func (e *Engine) WriteUtilization(w io.Writer) {
	if e.tele == nil {
		var nilUtil *telemetry.UtilTracker
		nilUtil.WriteHeatStrip(w, 1)
		return
	}
	e.tele.util.WriteHeatStrip(w, e.tele.utilWindows)
}

// WriteUtilizationJSON exports the utilization timelines as JSON.
func (e *Engine) WriteUtilizationJSON(w io.Writer) error {
	if e.tele == nil {
		var nilUtil *telemetry.UtilTracker
		return nilUtil.WriteJSON(w, 1)
	}
	return e.tele.util.WriteJSON(w, e.tele.utilWindows)
}
