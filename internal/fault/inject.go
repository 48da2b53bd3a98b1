package fault

import (
	"math/rand"
	"sync"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// Injection is one fault the injector fired, in schedule order.
type Injection struct {
	Op   Op
	Kind Kind
	Seq  int64 // 1-based device operation count at the injection
}

// Injector wraps a device.Device and injects the plan's faults at the ten
// plug-in interface boundaries. Faults fire before the wrapped operation
// runs, so a faulted operation never happened: no buffer was allocated, no
// data moved, no kernel ran. That keeps the fault model honest — retrying
// or failing over can never observe a half-applied operation.
//
// Everything that is not one of the ten interfaces — introspection, the
// engine timelines, the Sync handshake — is the embedded device's and
// passes through unfaulted. So does Reset: the wrapped device resets, the
// fault schedule and health state do not — a dead device stays dead until
// Revive, and the operation counter keeps advancing so a schedule spans
// resets.
//
// An Injector is safe for concurrent use; the decision stream is drawn
// under a lock from a per-device seeded RNG, so a single-threaded caller
// (the executor issues one query's device ops in a fixed order) always
// sees the same schedule.
type Injector struct {
	device.Device
	plan *Plan

	mu       sync.Mutex
	rng      *rand.Rand
	ops      int64
	perOp    [numOps]int64
	dead     bool
	died     bool // DieAfterOps already triggered; a Revive sticks
	name     string
	injected []Injection
}

var _ device.Device = (*Injector)(nil)

// Wrap returns d wrapped with the plan's fault schedule. A nil or disabled
// plan still wraps (so call sites stay uniform) but never injects.
func Wrap(d device.Device, plan *Plan) *Injector {
	if plan == nil {
		plan = &Plan{}
	}
	name := d.Info().Name
	return &Injector{
		Device: d,
		plan:   plan,
		rng:    rand.New(rand.NewSource(int64(plan.seedFor(name)))),
		name:   name,
	}
}

// Inner returns the wrapped device.
func (in *Injector) Inner() device.Device { return in.Device }

// Injections returns the faults fired so far, in order.
func (in *Injector) Injections() []Injection {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Injection, len(in.injected))
	copy(out, in.injected)
	return out
}

// Dead reports whether the device has been killed by a DeviceLost fault.
func (in *Injector) Dead() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dead
}

// Kill marks the device lost immediately, outside any schedule.
func (in *Injector) Kill() {
	in.mu.Lock()
	in.dead = true
	in.mu.Unlock()
}

// Revive brings a lost device back (tests and operator intervention).
func (in *Injector) Revive() {
	in.mu.Lock()
	in.dead = false
	in.mu.Unlock()
}

// decide advances the schedule by one operation and returns the latency
// spike to apply and the fault to inject, if any. The RNG is drawn a fixed
// number of times per operation regardless of outcome, so one fault firing
// never shifts the schedule of later ones.
func (in *Injector) decide(op Op) (vclock.Duration, error) {
	in.mu.Lock()
	defer in.mu.Unlock()

	in.ops++
	in.perOp[op]++
	seq := in.ops

	if in.dead {
		return 0, &Error{Kind: DeviceLost, Op: op, Seq: seq, Device: in.name}
	}

	kind := KindNone
	// Fixed-order probability draws: one per applicable rate, always.
	if in.plan.PLatency > 0 && in.rng.Float64() < in.plan.PLatency {
		kind = Latency
	}
	if op.transferOp() && in.plan.PTransient > 0 && in.rng.Float64() < in.plan.PTransient {
		kind = Transient
	}
	if op.allocOp() && in.plan.POOM > 0 && in.rng.Float64() < in.plan.POOM {
		kind = OOM
	}
	if op == OpExecute && in.plan.PLaunch > 0 && in.rng.Float64() < in.plan.PLaunch {
		kind = Launch
	}
	// Scripted steps override the probabilistic draw at their op.
	for _, st := range in.plan.Script {
		if st.Op >= 0 {
			if st.Op == op && st.At == in.perOp[op] {
				kind = st.Kind
			}
		} else if st.At == seq {
			kind = st.Kind
		}
	}
	// Device death dominates everything. DieAfterOps is a threshold, not
	// an exact match: the op that crosses the mark may be an exempt
	// deletion (which advances the counter without consulting the
	// schedule), so the first faultable op at or past the mark kills the
	// device. The died flag makes the trigger fire exactly once, so a
	// Revive sticks.
	if in.plan.DieAfterOps > 0 && !in.died && seq >= in.plan.DieAfterOps {
		in.died = true
		kind = DeviceLost
	}

	switch kind {
	case KindNone:
		return 0, nil
	case Latency:
		in.injected = append(in.injected, Injection{Op: op, Kind: Latency, Seq: seq})
		return in.plan.spike(), nil
	case DeviceLost:
		in.dead = true
	}
	in.injected = append(in.injected, Injection{Op: op, Kind: kind, Seq: seq})
	return 0, &Error{Kind: kind, Op: op, Seq: seq, Device: in.name}
}

// Initialize implements device.Device.
func (in *Injector) Initialize() error {
	if _, err := in.decide(OpInitialize); err != nil {
		return err
	}
	return in.Device.Initialize()
}

// PlaceData implements device.Device.
func (in *Injector) PlaceData(data vec.Vector, ready vclock.Time) (devmem.BufferID, vclock.Time, error) {
	delay, err := in.decide(OpPlaceData)
	if err != nil {
		return 0, ready, err
	}
	return in.Device.PlaceData(data, ready.Add(delay))
}

// PlaceDataInto implements device.Device.
func (in *Injector) PlaceDataInto(id devmem.BufferID, off int, data vec.Vector, ready vclock.Time) (vclock.Time, error) {
	delay, err := in.decide(OpPlaceData)
	if err != nil {
		return ready, err
	}
	return in.Device.PlaceDataInto(id, off, data, ready.Add(delay))
}

// RetrieveData implements device.Device.
func (in *Injector) RetrieveData(id devmem.BufferID, off, n int, dst vec.Vector, ready vclock.Time) (vclock.Time, error) {
	delay, err := in.decide(OpRetrieveData)
	if err != nil {
		return ready, err
	}
	return in.Device.RetrieveData(id, off, n, dst, ready.Add(delay))
}

// PrepareMemory implements device.Device.
func (in *Injector) PrepareMemory(t vec.Type, n int, ready vclock.Time) (devmem.BufferID, vclock.Time, error) {
	delay, err := in.decide(OpPrepareMemory)
	if err != nil {
		return 0, ready, err
	}
	return in.Device.PrepareMemory(t, n, ready.Add(delay))
}

// AddPinnedMemory implements device.Device.
func (in *Injector) AddPinnedMemory(t vec.Type, n int, ready vclock.Time) (devmem.BufferID, vclock.Time, error) {
	delay, err := in.decide(OpAddPinnedMemory)
	if err != nil {
		return 0, ready, err
	}
	return in.Device.AddPinnedMemory(t, n, ready.Add(delay))
}

// CreateChunk implements device.Device.
func (in *Injector) CreateChunk(id devmem.BufferID, off, n int) (devmem.BufferID, error) {
	if _, err := in.decide(OpCreateChunk); err != nil {
		return 0, err
	}
	return in.Device.CreateChunk(id, off, n)
}

// TransformMemory implements device.Device.
func (in *Injector) TransformMemory(id devmem.BufferID, target devmem.Format, ready vclock.Time) (vclock.Time, error) {
	delay, err := in.decide(OpTransformMemory)
	if err != nil {
		return ready, err
	}
	return in.Device.TransformMemory(id, target, ready.Add(delay))
}

// DeleteMemory implements device.Device. Deletion never faults and keeps
// working on a dead device: the executor's leak barrier depends on it, and
// on real hardware freeing after a device reset is likewise host-side
// bookkeeping. Without this exemption a lost device would leak every
// buffer the query still owned, and memory accounting could never return
// to its pre-query baseline.
func (in *Injector) DeleteMemory(id devmem.BufferID) error {
	in.mu.Lock()
	in.ops++
	in.perOp[OpDeleteMemory]++
	in.mu.Unlock()
	return in.Device.DeleteMemory(id)
}

// PrepareKernel implements device.Device.
func (in *Injector) PrepareKernel(name, source string) error {
	if _, err := in.decide(OpPrepareKernel); err != nil {
		return err
	}
	return in.Device.PrepareKernel(name, source)
}

// Execute implements device.Device.
func (in *Injector) Execute(req device.ExecRequest, ready vclock.Time) (vclock.Time, error) {
	delay, err := in.decide(OpExecute)
	if err != nil {
		return ready, err
	}
	return in.Device.Execute(req, ready.Add(delay))
}

// MarkPooled forwards device.PoolMarker to the wrapped device. Like
// DeleteMemory, pool ownership transitions are host-side bookkeeping and
// never fault; the buffer-pool layer relies on them during invalidation of
// a dead device.
func (in *Injector) MarkPooled(id devmem.BufferID, pooled bool) error {
	if pm, ok := in.Device.(device.PoolMarker); ok {
		return pm.MarkPooled(id, pooled)
	}
	return device.ErrNotSupported
}

// CheckMemAccounting forwards device.MemChecker to the wrapped device.
func (in *Injector) CheckMemAccounting() error {
	if mc, ok := in.Device.(device.MemChecker); ok {
		return mc.CheckMemAccounting()
	}
	return nil
}
