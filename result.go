package adamant

import (
	"time"

	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/vec"
)

// Result is a completed query: its named output columns and execution
// statistics.
type Result struct {
	inner *exec.Result
}

func newResult(r *exec.Result) *Result { return &Result{inner: r} }

// Columns lists the result column names in Return order.
func (r *Result) Columns() []string {
	out := make([]string, len(r.inner.Columns))
	for i, c := range r.inner.Columns {
		out[i] = c.Name
	}
	return out
}

// Len reports the row count of a result column (0 if absent).
func (r *Result) Len(name string) int {
	if v, ok := r.inner.Column(name); ok {
		return v.Len()
	}
	return 0
}

// Int64 returns a result column as int64 values. It panics if the column
// is absent or has another type; use Columns/Len to probe first.
func (r *Result) Int64(name string) []int64 {
	v, ok := r.inner.Column(name)
	if !ok {
		panic("adamant: no result column " + name)
	}
	return v.I64()
}

// Int32 returns a result column as int32 values. It panics if the column
// is absent or has another type.
func (r *Result) Int32(name string) []int32 {
	v, ok := r.inner.Column(name)
	if !ok {
		panic("adamant: no result column " + name)
	}
	return v.I32()
}

// column gives tests access to the raw vector.
func (r *Result) column(name string) (vec.Vector, bool) { return r.inner.Column(name) }

// Stats summarizes one execution. Durations are virtual (simulated device
// time) except Wall.
type Stats struct {
	// Elapsed is the simulated end-to-end execution time — what the
	// paper's figures report.
	Elapsed time.Duration
	// Wall is the host wall-clock time actually spent.
	Wall time.Duration
	// KernelTime, TransferTime and OverheadTime decompose the device
	// activity (kernel bodies, data movement, launch/alloc handling). They
	// are read from the devices' own counters, so on an engine shared with
	// concurrent queries they include the neighbours' activity.
	KernelTime   time.Duration
	TransferTime time.Duration
	OverheadTime time.Duration
	// H2DBytes and D2HBytes count the payload bytes this query moved —
	// its own, whatever else the devices ran meanwhile.
	H2DBytes int64
	D2HBytes int64
	// Launches counts this query's kernel dispatches; Chunks counts chunk
	// iterations; Pipelines counts the query pipelines executed.
	Launches  int64
	Chunks    int
	Pipelines int
	// PeakDeviceBytes is the device-memory high-water mark (device-wide,
	// like the three times above).
	PeakDeviceBytes int64
	// Retries counts device operations re-issued after transient faults.
	Retries int64
	// Events is the degradation event log (failovers).
	Events []RuntimeEvent
	// Drift is the per-pipeline estimated-vs-observed input cardinality,
	// in pipeline execution order — the estimate error the auto planner's
	// mid-query re-planner acts on.
	Drift []DriftSample
	// Replans counts mid-query re-plan restarts.
	Replans int
	// Shards holds the per-partition execution summaries when the query
	// ran scattered over a sharded engine (one entry per table partition,
	// in partition order). Nil for unsharded runs.
	Shards []ShardStat
	// PartialShards lists the partitions lost and excluded from the result
	// under the ShardLossPartial mode, ascending. Empty means the result
	// covers every partition.
	PartialShards []int
}

// DriftSample is one pipeline's estimated vs observed input cardinality.
type DriftSample = exec.DriftSample

// Stats returns the execution statistics.
func (r *Result) Stats() Stats {
	s := r.inner.Stats
	return Stats{
		Elapsed:         s.Elapsed.Std(),
		Wall:            s.Wall,
		KernelTime:      s.KernelTime.Std(),
		TransferTime:    s.TransferTime.Std(),
		OverheadTime:    s.OverheadTime.Std(),
		H2DBytes:        s.H2DBytes,
		D2HBytes:        s.D2HBytes,
		Launches:        s.Launches,
		Chunks:          s.Chunks,
		Pipelines:       s.Pipelines,
		PeakDeviceBytes: s.PeakDeviceBytes,
		Retries:         s.Retries,
		Events:          append([]RuntimeEvent(nil), s.Events...),
		Drift:           append([]DriftSample(nil), s.Drift...),
		Replans:         s.Replans,
		Shards:          append([]ShardStat(nil), s.Shards...),
		PartialShards:   append([]int(nil), s.PartialShards...),
	}
}

// ShardStats returns the per-partition execution summaries of a sharded
// run, in partition order. Nil when the query ran unsharded.
func (r *Result) ShardStats() []ShardStat {
	return append([]ShardStat(nil), r.inner.Stats.Shards...)
}

// Partial reports whether partitions were lost and excluded from this
// result (ShardLossPartial mode), and which.
func (r *Result) Partial() (bool, []int) {
	lost := r.inner.Stats.PartialShards
	return len(lost) > 0, append([]int(nil), lost...)
}

// Footprint returns the per-primitive device-memory trace recorded when
// ExecOptions.Trace was set, as (label, bytes) pairs.
func (r *Result) Footprint() []struct {
	Label string
	Bytes int64
} {
	out := make([]struct {
		Label string
		Bytes int64
	}, len(r.inner.Stats.Footprint))
	for i, s := range r.inner.Stats.Footprint {
		out[i].Label = s.Label
		out[i].Bytes = s.Bytes
	}
	return out
}
