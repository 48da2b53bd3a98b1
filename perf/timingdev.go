package main

import (
	"fmt"

	"github.com/adamant-db/adamant"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/driver/simopencl"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// timingDevice is the benchmark's own device: it times every call of the
// paper's ten interfaces on its way to the driver it embeds and leaves
// everything else (introspection, timelines, Sync) to the driver. It sizes
// buffers from the arguments it sees, never by inspecting device memory.
type timingDevice struct {
	device.Device
	tr *tracer
}

// plugTimed plugs the workload's driver wrapped in a timing device.
func plugTimed(tr *tracer) plugFunc {
	return func(e *adamant.Engine, w *workload) (adamant.DeviceID, error) {
		if w.hw != adamant.RTX2080Ti {
			return 0, fmt.Errorf("traced run knows no driver for %v", w.hw)
		}
		var mk func() device.Device
		switch w.sdk {
		case adamant.CUDA:
			mk = func() device.Device { return simcuda.New(&simhw.RTX2080Ti, nil) }
		case adamant.OpenCL:
			mk = func() device.Device { return simopencl.NewGPU(&simhw.RTX2080Ti, nil) }
		default:
			return 0, fmt.Errorf("traced run knows no driver for %v", w.sdk)
		}
		return e.PlugMaker(func() device.Device { return &timingDevice{Device: mk(), tr: tr} })
	}
}

func (d *timingDevice) Initialize() error {
	start := d.tr.now()
	err := d.Device.Initialize()
	d.tr.timed(callInitialize, start, 0)
	return err
}

func (d *timingDevice) PlaceData(data vec.Vector, ready vclock.Time) (devmem.BufferID, vclock.Time, error) {
	start := d.tr.now()
	id, end, err := d.Device.PlaceData(data, ready)
	d.tr.created(callPlaceData, start, id, shape{data.Type(), data.Len()}, err)
	return id, end, err
}

func (d *timingDevice) PlaceDataInto(id devmem.BufferID, off int, data vec.Vector, ready vclock.Time) (vclock.Time, error) {
	start := d.tr.now()
	end, err := d.Device.PlaceDataInto(id, off, data, ready)
	d.tr.timed(callPlaceDataInto, start, data.Bytes())
	return end, err
}

func (d *timingDevice) RetrieveData(id devmem.BufferID, off, n int, dst vec.Vector, ready vclock.Time) (vclock.Time, error) {
	start := d.tr.now()
	end, err := d.Device.RetrieveData(id, off, n, dst, ready)
	d.tr.retrieved(start, id, off, n, dst.Type())
	return end, err
}

func (d *timingDevice) PrepareMemory(t vec.Type, n int, ready vclock.Time) (devmem.BufferID, vclock.Time, error) {
	start := d.tr.now()
	id, end, err := d.Device.PrepareMemory(t, n, ready)
	d.tr.created(callPrepareMemory, start, id, shape{t, n}, err)
	return id, end, err
}

func (d *timingDevice) AddPinnedMemory(t vec.Type, n int, ready vclock.Time) (devmem.BufferID, vclock.Time, error) {
	start := d.tr.now()
	id, end, err := d.Device.AddPinnedMemory(t, n, ready)
	d.tr.created(callAddPinnedMemory, start, id, shape{t, n}, err)
	return id, end, err
}

func (d *timingDevice) CreateChunk(id devmem.BufferID, off, n int) (devmem.BufferID, error) {
	start := d.tr.now()
	view, err := d.Device.CreateChunk(id, off, n)
	d.tr.viewed(start, id, view, n, err)
	return view, err
}

func (d *timingDevice) TransformMemory(id devmem.BufferID, target devmem.Format, ready vclock.Time) (vclock.Time, error) {
	start := d.tr.now()
	end, err := d.Device.TransformMemory(id, target, ready)
	d.tr.timed(callTransformMemory, start, 0)
	return end, err
}

func (d *timingDevice) DeleteMemory(id devmem.BufferID) error {
	start := d.tr.now()
	err := d.Device.DeleteMemory(id)
	d.tr.freed(start, id)
	return err
}

func (d *timingDevice) PrepareKernel(name, source string) error {
	start := d.tr.now()
	err := d.Device.PrepareKernel(name, source)
	d.tr.timed(callPrepareKernel, start, 0)
	return err
}

func (d *timingDevice) Execute(req device.ExecRequest, ready vclock.Time) (vclock.Time, error) {
	start := d.tr.now()
	end, err := d.Device.Execute(req, ready)
	d.tr.launched(start, req.Kernel, req.Args)
	return end, err
}

// MarkPooled forwards the optional device.PoolMarker, which the buffer
// pool needs to keep the driver's pooled-versus-query accounting right.
func (d *timingDevice) MarkPooled(id devmem.BufferID, pooled bool) error {
	if m, ok := d.Device.(device.PoolMarker); ok {
		return m.MarkPooled(id, pooled)
	}
	return nil
}

// CheckMemAccounting forwards the optional device.MemChecker.
func (d *timingDevice) CheckMemAccounting() error {
	if m, ok := d.Device.(device.MemChecker); ok {
		return m.CheckMemAccounting()
	}
	return nil
}
