package exec

import (
	"errors"
	"strings"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/fault"
	"github.com/adamant-db/adamant/internal/telemetry"
	"github.com/adamant-db/adamant/internal/trace"
	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// seam is the one wrapper between a query and a device: every call of the
// ten plug-in interfaces (and Sync) funnels through issue, which retries
// transient faults, records the engine span and counts the query's own
// launches and bytes. Introspection (Info, Buffer, the engine timelines,
// MemStats, Stats, Reset) is the embedded device's. The executor keeps one
// seam per device for the life of the query, so what a seam counts is this
// query's work and nobody else's.
//
// It forwards neither device.PoolMarker nor device.MemChecker: the buffer
// pool talks to the raw runtime device.
type seam struct {
	device.Device
	x    *executor
	id   device.ID
	name string
}

var _ device.Device = (*seam)(nil)

// seam returns the query's wrapper of the device registered as id — the
// device itself, not what id fails over to: frees must reach the device
// that holds the buffer.
func (x *executor) seam(id device.ID) (*seam, error) {
	if s := x.seams[id]; s != nil {
		return s, nil
	}
	d, err := x.rt.Device(id)
	if err != nil {
		return nil, err
	}
	s := &seam{Device: d, x: x, id: id, name: d.Info().Name}
	x.seams[id] = s
	return s, nil
}

// device resolves a logical device ID through the failover remap. The
// returned ID is the effective device the query actually runs on; it is
// what port state, allocation tracking and routing must record.
func (x *executor) device(id device.ID) (device.ID, *seam, error) {
	eff := x.resolve(id)
	s, err := x.seam(eff)
	return eff, s, err
}

// call describes one interface call to issue.
type call struct {
	// kind is the engine span the call leaves and the counter it bumps.
	// The zero value (not an engine kind) is host-side bookkeeping — views,
	// initialization, kernel compilation — that occupies no engine.
	kind trace.Kind
	// label names the span; empty means the executor's current operation.
	label string
	// bytes is the payload moved (transfers) or reserved (allocations).
	bytes int64
	// once marks a call that is issued exactly once and whose failure is
	// not a device fault: deletion (the leak barrier must always be able to
	// free, and the injector never faults it) and the sync handshake.
	once bool
}

// compute reports whether the call runs on the compute engine; every other
// engine kind runs on the copy engine.
func (c call) compute() bool { return c.kind == trace.KindKernel || c.kind == trace.KindSync }

// issue drives op under the query's retry policy. op receives the ready
// time of each try (later tries are pushed back by the backoff) and returns
// the operation's completion. Per try, in this order: snapshot the engine's
// busy time (only when tracing), call the device, then either record the
// span and count the work, or account the fault. Tracing thus sits inside
// retrying: a faulted try consumed no engine time and leaves a retry span,
// never an engine span.
func (s *seam) issue(what call, ready vclock.Time, op func(vclock.Time) (vclock.Time, error)) (vclock.Time, error) {
	x := s.x
	backoff := x.retry.Backoff
	for tries := 0; ; tries++ {
		var tl *vclock.Timeline
		var busy vclock.Duration
		if x.rec != nil && what.kind.Engine() {
			tl = s.CopyEngine()
			if what.compute() {
				tl = s.ComputeEngine()
			}
			busy = tl.Busy()
		}
		end, err := op(ready)
		if err == nil {
			if tl != nil {
				if what.kind == trace.KindFree {
					// The device reports no completion event for a free; it
					// ends when the copy engine next becomes idle, because
					// deletions schedule at the engine's availability.
					end = tl.Avail()
				}
				s.record(what, tl.Busy()-busy, end)
			}
			switch what.kind {
			case trace.KindKernel:
				x.launches++
			case trace.KindH2D:
				x.h2dBytes += what.bytes
			case trace.KindD2H:
				x.d2hBytes += what.bytes
			}
			return end, nil
		}
		if what.once {
			return end, err
		}
		// Every faulted operation counts against the device's health window,
		// whether it is retried, degraded around, or surfaced.
		x.faults[s.id]++
		if errors.Is(err, fault.ErrDeviceLost) {
			return end, &DeviceLostError{Device: s.id, Err: err}
		}
		if isOOM(err) {
			return end, &OOMError{Device: s.id, Err: err}
		}
		if tries >= x.retry.MaxRetries || !fault.IsTransient(err) {
			return end, err
		}
		x.retries++
		if x.opts.Events != nil {
			x.opts.Events.Emit(telemetry.Event{
				Type: telemetry.EventRetry, Query: x.opts.QueryID,
				VT: int64(ready), Device: s.name,
				Detail: err.Error(),
			})
		}
		if x.rec != nil {
			// The retry span covers the backoff gap: virtual time the query
			// lost to the fault, annotated with the injector's error string.
			x.rec.Add(trace.Span{
				Parent: x.parentSpan(), Kind: trace.KindRetry,
				Label:  err.Error(),
				Device: s.name,
				Start:  ready, End: ready.Add(backoff),
				Node: x.curNode, Pipeline: x.pidx, Chunk: x.cidx,
			})
		}
		ready = ready.Add(backoff)
		backoff *= 2
		if backoff > x.retry.BackoffCap {
			backoff = x.retry.BackoffCap
		}
	}
}

// record appends the engine span of one successful call. The device reports
// only an operation's completion, but the engine's busy counter advanced by
// exactly the operation's scheduled duration, and the executor issues one
// query's operations serially, so start = end - busy. An operation that
// schedules several back-to-back segments in one call (a fresh placement's
// allocation + copy) records one span covering both. Zero-duration spans
// are kept only for transfers (their byte counts feed the bytes-moved
// invariants); frees, syncs, transforms and allocations that cost nothing
// (views, host-resident devices) record nothing.
func (s *seam) record(what call, busy vclock.Duration, end vclock.Time) {
	x := s.x
	if busy == 0 && what.kind != trace.KindH2D && what.kind != trace.KindD2H {
		return
	}
	span := trace.Span{
		Parent:   x.parentSpan(),
		Kind:     what.kind,
		Label:    what.label,
		Device:   s.name,
		Engine:   "copy",
		Start:    end.Add(-busy),
		End:      end,
		Bytes:    what.bytes,
		Node:     x.curNode,
		Pipeline: x.pidx,
		Chunk:    x.cidx,
	}
	if span.Label == "" {
		span.Label = x.opLabel
	}
	if what.compute() {
		span.Engine = "compute"
	}
	id := x.rec.Add(span)
	if what.kind != trace.KindKernel {
		return
	}
	x.lastKernel = id
	// A fused single-pass kernel gets a companion fuse annotation with the
	// same extent: never engine time (the kernel span already carries that),
	// but it lets summaries and invariants show which launches replaced
	// whole primitive chains.
	if strings.HasPrefix(span.Label, "fused_") {
		span.Kind, span.Engine = trace.KindFuse, ""
		x.rec.Add(span)
	}
}

// Initialize implements device.Device.
func (s *seam) Initialize() error {
	_, err := s.issue(call{}, 0, func(vclock.Time) (vclock.Time, error) { return 0, s.Device.Initialize() })
	return err
}

// PlaceData implements device.Device.
func (s *seam) PlaceData(data vec.Vector, ready vclock.Time) (devmem.BufferID, vclock.Time, error) {
	var buf devmem.BufferID
	end, err := s.issue(call{kind: trace.KindH2D, bytes: data.Bytes()}, ready, func(at vclock.Time) (end vclock.Time, err error) {
		buf, end, err = s.Device.PlaceData(data, at)
		return end, err
	})
	return buf, end, err
}

// PlaceDataInto implements device.Device.
func (s *seam) PlaceDataInto(id devmem.BufferID, off int, data vec.Vector, ready vclock.Time) (vclock.Time, error) {
	return s.issue(call{kind: trace.KindH2D, bytes: data.Bytes()}, ready, func(at vclock.Time) (vclock.Time, error) {
		return s.Device.PlaceDataInto(id, off, data, at)
	})
}

// RetrieveData implements device.Device.
func (s *seam) RetrieveData(id devmem.BufferID, off, n int, dst vec.Vector, ready vclock.Time) (vclock.Time, error) {
	return s.issue(call{kind: trace.KindD2H, bytes: bytesFor(dst.Type(), n)}, ready, func(at vclock.Time) (vclock.Time, error) {
		return s.Device.RetrieveData(id, off, n, dst, at)
	})
}

// PrepareMemory implements device.Device.
func (s *seam) PrepareMemory(t vec.Type, n int, ready vclock.Time) (devmem.BufferID, vclock.Time, error) {
	var buf devmem.BufferID
	end, err := s.issue(call{kind: trace.KindAlloc, bytes: bytesFor(t, n)}, ready, func(at vclock.Time) (end vclock.Time, err error) {
		buf, end, err = s.Device.PrepareMemory(t, n, at)
		return end, err
	})
	return buf, end, err
}

// AddPinnedMemory implements device.Device.
func (s *seam) AddPinnedMemory(t vec.Type, n int, ready vclock.Time) (devmem.BufferID, vclock.Time, error) {
	var buf devmem.BufferID
	end, err := s.issue(call{kind: trace.KindPinnedAlloc, bytes: bytesFor(t, n)}, ready, func(at vclock.Time) (end vclock.Time, err error) {
		buf, end, err = s.Device.AddPinnedMemory(t, n, at)
		return end, err
	})
	return buf, end, err
}

// CreateChunk implements device.Device. Views are host-side bookkeeping: no
// engine time, no span, and retries carry no virtual-time backoff.
func (s *seam) CreateChunk(id devmem.BufferID, off, n int) (devmem.BufferID, error) {
	var buf devmem.BufferID
	_, err := s.issue(call{}, 0, func(vclock.Time) (_ vclock.Time, err error) {
		buf, err = s.Device.CreateChunk(id, off, n)
		return 0, err
	})
	return buf, err
}

// TransformMemory implements device.Device.
func (s *seam) TransformMemory(id devmem.BufferID, target devmem.Format, ready vclock.Time) (vclock.Time, error) {
	return s.issue(call{kind: trace.KindTransform}, ready, func(at vclock.Time) (vclock.Time, error) {
		return s.Device.TransformMemory(id, target, at)
	})
}

// DeleteMemory implements device.Device.
func (s *seam) DeleteMemory(id devmem.BufferID) error {
	_, err := s.issue(call{kind: trace.KindFree, once: true}, 0, func(vclock.Time) (vclock.Time, error) { return 0, s.Device.DeleteMemory(id) })
	return err
}

// PrepareKernel implements device.Device.
func (s *seam) PrepareKernel(name, source string) error {
	_, err := s.issue(call{}, 0, func(vclock.Time) (vclock.Time, error) { return 0, s.Device.PrepareKernel(name, source) })
	return err
}

// Execute implements device.Device. The span covers the SDK launch overhead
// plus the kernel body and is labelled with the kernel name.
func (s *seam) Execute(req device.ExecRequest, ready vclock.Time) (vclock.Time, error) {
	return s.issue(call{kind: trace.KindKernel, label: req.Kernel}, ready, func(at vclock.Time) (vclock.Time, error) {
		return s.Device.Execute(req, at)
	})
}

// Sync implements device.Device.
func (s *seam) Sync(ready vclock.Time) vclock.Time {
	end, _ := s.issue(call{kind: trace.KindSync, once: true}, ready, func(at vclock.Time) (vclock.Time, error) {
		return s.Device.Sync(at), nil
	})
	return end
}
