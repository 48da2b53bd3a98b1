package adamant

import (
	"errors"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/kernels"
	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// This file is the facade half of the per-device circuit breaker (enabled
// with WithHealthPolicy): it feeds the session.HealthTracker state machine
// from query outcomes and translates its decisions into scheduler
// Quarantine/Readmit calls, closing the loop the tracker itself never
// touches. Without a health policy none of it runs and quarantining stays
// manual (Quarantine on failover, Readmit by the operator).

// errDeadline reports whether err is a deadline violation (shed at
// admission or cut at a chunk boundary).
func errDeadline(err error) bool { return errors.Is(err, vclock.ErrDeadline) }

// observeHealth folds one finished query into the breaker: a failover is
// conclusive evidence against the lost device (ForceOpen), every fault the
// executor counted is one bad observation, and a clean success is one good
// observation per device the query used. Devices whose breaker trips are
// quarantined onto the engine's fallback.
func (e *Engine) observeHealth(res *exec.Result, runErr error) {
	if res == nil {
		return
	}
	if e.health == nil {
		// No breaker to undo it by probation: a failover quarantines the
		// lost device outright, so later admissions charge its demand to
		// the fallback's budget.
		for _, ev := range res.Stats.Events {
			if ev.Kind == exec.EventFailover {
				e.sched.Quarantine(ev.From, ev.To)
			}
		}
		return
	}
	open := make(map[device.ID]bool)
	for _, ev := range res.Stats.Events {
		if ev.Kind == exec.EventFailover {
			if e.health.ForceOpen(ev.From) {
				open[ev.From] = true
			}
		}
	}
	faulted := make(map[device.ID]bool)
	for dev, n := range res.Stats.FaultsByDevice {
		faulted[dev] = true
		for i := int64(0); i < n; i++ {
			if e.health.Observe(dev, false) {
				open[dev] = true
			}
		}
	}
	if runErr == nil {
		// Success without a single fault on a device is a good observation
		// for it; a device that faulted during a nonetheless-successful run
		// already got its bad marks above.
		for dev := range e.demandDevices(res) {
			if !faulted[dev] && !e.health.Open(dev) {
				e.health.Observe(dev, true)
			}
		}
	}
	for dev := range open {
		e.quarantineFor(dev)
	}
}

// demandDevices lists the devices a finished query touched, from its
// per-device stats; devices that never faulted appear with a zero entry
// only if the executor recorded one, so fall back to every plugged device
// that ran fault-free when the map is empty.
func (e *Engine) demandDevices(res *exec.Result) map[device.ID]struct{} {
	out := make(map[device.ID]struct{})
	for dev := range res.Stats.FaultsByDevice {
		out[dev] = struct{}{}
	}
	if len(out) == 0 {
		for i := range e.rt.Devices() {
			out[device.ID(i)] = struct{}{}
		}
	}
	return out
}

// quarantineFor quarantines a tripped device onto the engine's configured
// fallback, or the first host-resident device other than it. Without a
// viable stand-in the device stays admissible (quarantine needs a fallback
// to charge demand to).
func (e *Engine) quarantineFor(dev device.ID) {
	if e.fallback != nil && *e.fallback != dev {
		e.sched.Quarantine(dev, *e.fallback)
		return
	}
	for i, d := range e.rt.Devices() {
		id := device.ID(i)
		if id != dev && d.Info().HostResident {
			e.sched.Quarantine(dev, id)
			return
		}
	}
}

// pulseHealth runs one probation round: every device with an open breaker
// gets a cheap synthetic probe (transfer + kernel + retrieve on the real
// device, bypassing admission), and a device that reaches its consecutive-
// success target is readmitted automatically.
func (e *Engine) pulseHealth() {
	if e.health == nil {
		return
	}
	for _, dev := range e.health.OpenDevices() {
		if e.health.ProbeResult(dev, e.probeDevice(dev)) {
			e.sched.Readmit(dev)
		}
	}
}

// probeDevice exercises the smallest representative slice of the device
// interface — place 64 values, allocate a bitmap, run a filter kernel,
// retrieve the values back — and reports whether all of it succeeded. The
// probe's buffers are always freed (DeleteMemory never faults), so probing
// cannot leak device memory or disturb the engine's memory baseline.
func (e *Engine) probeDevice(id device.ID) bool {
	d, err := e.rt.Device(id)
	if err != nil {
		return false
	}
	const n = 64
	in := vec.FromInt32(make([]int32, n))
	buf, t, err := d.PlaceData(in, d.CopyEngine().Avail())
	if err != nil {
		return false
	}
	defer d.DeleteMemory(buf)
	bm, t2, err := d.PrepareMemory(vec.Bits, n, t)
	if err != nil {
		return false
	}
	defer d.DeleteMemory(bm)
	end, err := d.Execute(device.ExecRequest{
		Kernel: "filter_bitmap_i32",
		Args:   []devmem.BufferID{buf, bm},
		Params: []int64{int64(kernels.CmpGe), 0, 0},
	}, t2)
	if err != nil {
		return false
	}
	out := vec.FromInt32(make([]int32, n))
	if _, err := d.RetrieveData(buf, 0, n, out, end); err != nil {
		return false
	}
	return true
}
