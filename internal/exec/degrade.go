package exec

import (
	"errors"
	"fmt"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/fault"
	"github.com/adamant-db/adamant/internal/telemetry"
	"github.com/adamant-db/adamant/internal/trace"
	"github.com/adamant-db/adamant/internal/vclock"
)

// ErrUnknownModel reports an Options.Model outside the defined execution
// models. Validating up front keeps a bad model from silently running under
// zero-value flags (which happen to be the naive chunked policy).
var ErrUnknownModel = errors.New("exec: unknown execution model")

// errReplan is the internal sentinel a fired Options.Replan hook aborts
// the attempt with; recoverAttempt consumes it and restarts with the
// already-switched chunk size. It never escapes run().
var errReplan = errors.New("exec: mid-query replan restart")

// RetryPolicy configures how the executor retries transient device faults
// (failed transfers, kernel launch errors). The zero value disables
// retries, preserving fail-fast behaviour for callers that never opted in.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts per device operation after
	// the first failure. Zero disables retrying.
	MaxRetries int
	// Backoff is the virtual-time delay before the first retry; it doubles
	// per attempt up to BackoffCap. Defaults to 50µs / 5ms when MaxRetries
	// is set — retries cost simulated time like everything else, so the
	// paper-style timing figures stay honest under faults.
	Backoff    vclock.Duration
	BackoffCap vclock.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries <= 0 {
		return RetryPolicy{}
	}
	if p.Backoff <= 0 {
		p.Backoff = 50 * vclock.Microsecond
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = 5 * vclock.Millisecond
	}
	return p
}

// DeviceLostError reports that a device died while a query was using it.
// The executor surfaces it (wrapped) when no fallback is configured, and
// consumes it internally when failover re-places the query.
type DeviceLostError struct {
	// Device is the runtime ID of the lost device.
	Device device.ID
	// Err is the underlying fault.
	Err error
}

// Error implements error.
func (e *DeviceLostError) Error() string {
	return fmt.Sprintf("exec: device %v lost: %v", e.Device, e.Err)
}

// Unwrap exposes the underlying fault so errors.Is sees
// fault.ErrDeviceLost and fault.ErrInjected through the wrapper.
func (e *DeviceLostError) Unwrap() error { return e.Err }

// OOMError reports a failed device allocation — an injected OOM fault or
// genuine pool exhaustion — attributed to the device it happened on. The
// adaptive-chunking ladder catches it with errors.As; without adaptive
// chunking it surfaces wrapped, so errors.Is still sees the underlying
// sentinel (fault.ErrOOM or devmem.ErrOutOfMemory).
type OOMError struct {
	// Device is the runtime ID of the device that ran out of memory.
	Device device.ID
	// Err is the underlying allocation failure.
	Err error
}

// Error implements error.
func (e *OOMError) Error() string {
	return fmt.Sprintf("exec: device %v out of memory: %v", e.Device, e.Err)
}

// Unwrap exposes the underlying allocation failure.
func (e *OOMError) Unwrap() error { return e.Err }

// isOOM reports whether err is a device allocation failure: an injected
// OOM fault or the memory pool's genuine exhaustion.
func isOOM(err error) bool {
	return errors.Is(err, fault.ErrOOM) || errors.Is(err, devmem.ErrOutOfMemory)
}

// EventKind classifies a RuntimeEvent.
type EventKind int

// Runtime event kinds.
const (
	// EventFailover records a query re-placed from a lost device onto a
	// healthy fallback.
	EventFailover EventKind = iota
	// EventDegrade records one step of the adaptive OOM ladder: either the
	// effective chunk size halving (ChunkFrom > ChunkTo, From == To), or
	// the last-resort re-placement onto a host-resident device (From !=
	// To) once the chunk floor is reached.
	EventDegrade
	// EventReplan records a mid-query re-plan: the Options.Replan hook
	// resized the chunk (ChunkFrom -> ChunkTo) after observed pipeline
	// cardinality drifted from the estimate, and the attempt restarted.
	EventReplan
	// EventHedge records the shard coordinator running a duplicate of a
	// straggling partition on the peer that frees up first (From: the
	// straggler's shard index, To: the hedge target's shard index, as
	// pseudo device IDs).
	EventHedge
	// EventShardFailover records a shard partition re-dispatched onto a
	// healthy peer after its shard died mid-query.
	EventShardFailover
	// EventShardLost records a shard whose partition could not be recovered
	// — under LossPartial the query completes without it and flags
	// Stats.PartialShards.
	EventShardLost
)

// String returns the event kind's name.
func (k EventKind) String() string {
	switch k {
	case EventFailover:
		return "failover"
	case EventDegrade:
		return "degrade"
	case EventReplan:
		return "replan"
	case EventHedge:
		return "hedge"
	case EventShardFailover:
		return "shard-failover"
	case EventShardLost:
		return "shard-lost"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// RuntimeEvent is one entry of the execution event log: something the
// runtime did to keep the query alive, recorded so operators (and the
// acceptance tests) can see that degradation happened and where.
type RuntimeEvent struct {
	Kind EventKind
	// From and To are the devices involved (for EventFailover: the lost
	// device and its replacement; for an EventDegrade re-placement: the
	// OOM device and the host-resident target).
	From device.ID
	To   device.ID
	// ChunkFrom and ChunkTo are the effective chunk sizes before and after
	// an EventDegrade halving step (both zero otherwise).
	ChunkFrom int
	ChunkTo   int
}

// String formats the event for logs.
func (e RuntimeEvent) String() string {
	if (e.Kind == EventDegrade || e.Kind == EventReplan) && e.ChunkTo > 0 && e.ChunkFrom != e.ChunkTo {
		return fmt.Sprintf("%s chunk %d->%d on %v", e.Kind, e.ChunkFrom, e.ChunkTo, e.From)
	}
	return fmt.Sprintf("%s %v->%v", e.Kind, e.From, e.To)
}

// recoverAttempt decides whether the attempt loop in run() may retry after
// runErr. It implements the two self-healing paths:
//
//   - Failover: a *DeviceLostError with a configured, live fallback remaps
//     the dead device onto it (at most once per plugged device).
//   - Adaptive OOM degradation: with Options.AdaptiveChunking set, an
//     *OOMError first halves the effective chunk size down to
//     minChunkElems(), then — at the floor, or under a whole-input model
//     with no chunks to shrink — re-places the query onto a host-resident
//     device as the last resort.
//
// Every step releases the failed attempt's buffers (traced, inside the
// statistics window), appends a RuntimeEvent, and records an annotation
// span, so the virtual-time cost of degradation stays visible. It returns
// false when runErr is not recoverable and the loop must surface it.
func (x *executor) recoverAttempt(runErr error) bool {
	if errors.Is(runErr, errReplan) {
		// The hook already recorded the event/span and switched chunkEff;
		// just release the aborted attempt's buffers and restart.
		x.releaseAll(true)
		x.releaseLeases()
		return true
	}
	var lost *DeviceLostError
	if errors.As(runErr, &lost) && x.opts.FallbackDevice != nil {
		fb := x.resolve(*x.opts.FallbackDevice)
		if fb == lost.Device {
			return false // the fallback itself is the dead device
		}
		if _, err := x.rt.Device(fb); err != nil {
			return false
		}
		x.events = append(x.events, RuntimeEvent{Kind: EventFailover, From: lost.Device, To: fb})
		if x.opts.Events != nil {
			x.opts.Events.Emit(telemetry.Event{
				Type: telemetry.EventFailover, Query: x.opts.QueryID,
				VT: int64(x.horizon), Device: x.deviceName(lost.Device),
				Detail: fmt.Sprintf("%v->%v: %v", lost.Device, fb, lost.Err),
			})
		}
		if x.rec != nil {
			x.rec.Add(trace.Span{
				Parent: x.qspan, Kind: trace.KindFailover,
				Label: fmt.Sprintf("%v->%v: %v", lost.Device, fb, lost.Err),
				Start: x.horizon, End: x.horizon,
				Node: -1, Pipeline: -1, Chunk: -1,
			})
		}
		x.remap[lost.Device] = fb
		x.releaseAll(true)
		// Drop this query's eviction pins, then purge the dead device's
		// cached columns: unreferenced entries free immediately (deletion
		// works on dead devices), entries still leased by other queries
		// are doomed and freed on their last release — never leaked.
		x.releaseLeases()
		x.opts.Pool.InvalidateDevice(lost.Device)
		return true
	}
	var oom *OOMError
	if !x.opts.AdaptiveChunking || !errors.As(runErr, &oom) {
		return false
	}
	if !x.flags.wholeInput {
		if half := ((x.chunkEff / 2) + 63) &^ 63; half >= x.opts.minChunkElems() && half < x.chunkEff {
			x.events = append(x.events, RuntimeEvent{
				Kind: EventDegrade, From: oom.Device, To: oom.Device,
				ChunkFrom: x.chunkEff, ChunkTo: half,
			})
			if x.opts.Events != nil {
				x.opts.Events.Emit(telemetry.Event{
					Type: telemetry.EventDegrade, Query: x.opts.QueryID,
					VT: int64(x.horizon), Device: x.deviceName(oom.Device),
					Detail: fmt.Sprintf("chunk %d->%d: %v", x.chunkEff, half, oom.Err),
				})
			}
			if x.rec != nil {
				x.rec.Add(trace.Span{
					Parent: x.qspan, Kind: trace.KindDegrade,
					Label: fmt.Sprintf("chunk %d->%d: %v", x.chunkEff, half, oom.Err),
					Start: x.horizon, End: x.horizon,
					Node: -1, Pipeline: -1, Chunk: -1,
				})
			}
			x.chunkEff = half
			x.releaseAll(true)
			x.releaseLeases()
			return true
		}
	}
	// Chunk floor reached (or nothing to shrink): re-place the query onto a
	// host-resident device, where "device memory" is host memory and the
	// working set fits by construction.
	host, ok := x.hostFallback(oom.Device)
	if !ok {
		return false
	}
	x.events = append(x.events, RuntimeEvent{Kind: EventDegrade, From: oom.Device, To: host})
	if x.opts.Events != nil {
		x.opts.Events.Emit(telemetry.Event{
			Type: telemetry.EventDegrade, Query: x.opts.QueryID,
			VT: int64(x.horizon), Device: x.deviceName(oom.Device),
			Detail: fmt.Sprintf("re-place %v->%v: %v", oom.Device, host, oom.Err),
		})
	}
	if x.rec != nil {
		x.rec.Add(trace.Span{
			Parent: x.qspan, Kind: trace.KindDegrade,
			Label: fmt.Sprintf("re-place %v->%v: %v", oom.Device, host, oom.Err),
			Start: x.horizon, End: x.horizon,
			Node: -1, Pipeline: -1, Chunk: -1,
		})
	}
	x.remap[oom.Device] = host
	x.releaseAll(true)
	// The device is under genuine memory pressure; give its cached
	// columns back before the re-placed attempt runs.
	x.releaseLeases()
	x.opts.Pool.InvalidateDevice(oom.Device)
	return true
}

// deviceName resolves a runtime device ID to its plug name for event
// attribution; lost devices still resolve (the runtime keeps them).
func (x *executor) deviceName(id device.ID) string {
	if d, err := x.rt.Device(id); err == nil {
		return d.Info().Name
	}
	return fmt.Sprintf("device-%d", id)
}

// hostFallback picks the device the OOM last-resort re-placement targets:
// the configured fallback when it resolves to a host-resident device, else
// the lowest-ID host-resident device other than the one that ran out of
// memory. ok is false when the runtime has no such device.
func (x *executor) hostFallback(avoid device.ID) (device.ID, bool) {
	if x.opts.FallbackDevice != nil {
		fb := x.resolve(*x.opts.FallbackDevice)
		if fb != avoid {
			if d, err := x.rt.Device(fb); err == nil && d.Info().HostResident {
				return fb, true
			}
		}
	}
	for i, d := range x.rt.Devices() {
		id := device.ID(i)
		if id != avoid && x.resolve(id) == id && d.Info().HostResident {
			return id, true
		}
	}
	return 0, false
}

// resolve follows the executor's failover remap chain: after a device dies
// and the query re-places onto a fallback, every logical reference to the
// dead device resolves to its replacement.
func (x *executor) resolve(id device.ID) device.ID {
	for i := 0; i <= len(x.remap); i++ {
		next, ok := x.remap[id]
		if !ok {
			return id
		}
		id = next
	}
	return id
}
