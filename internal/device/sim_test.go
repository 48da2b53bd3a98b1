package device

import (
	"errors"
	"testing"

	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/kernels"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

func newCUDA(t *testing.T) *Sim {
	t.Helper()
	d := NewSim(SimConfig{Spec: &simhw.RTX2080Ti, SDK: &simhw.CUDAProfile, Format: devmem.FormatCUDA})
	if err := d.Initialize(); err != nil {
		t.Fatal(err)
	}
	return d
}

func newOpenCL(t *testing.T) *Sim {
	t.Helper()
	d := NewSim(SimConfig{Spec: &simhw.RTX2080Ti, SDK: &simhw.OpenCLGPUProfile, Format: devmem.FormatOpenCL})
	if err := d.Initialize(); err != nil {
		t.Fatal(err)
	}
	return d
}

func newOpenMP(t *testing.T) *Sim {
	t.Helper()
	d := NewSim(SimConfig{Spec: &simhw.CoreI78700, SDK: &simhw.OpenMPProfile, Format: devmem.FormatRaw})
	if err := d.Initialize(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPlaceRetrieveRoundtrip(t *testing.T) {
	d := newCUDA(t)
	host := vec.FromInt32([]int32{1, 2, 3, 4, 5})
	id, done, err := d.PlaceData(host, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Error("transfer must consume virtual time")
	}
	back := vec.New(vec.Int32, 5)
	end, err := d.RetrieveData(id, 0, -1, back, done)
	if err != nil {
		t.Fatal(err)
	}
	if end <= done {
		t.Error("retrieve must consume virtual time")
	}
	if !vec.Equal(host, back) {
		t.Error("roundtrip corrupted data")
	}

	// Partial retrieve.
	part := vec.New(vec.Int32, 2)
	if _, err := d.RetrieveData(id, 2, 2, part, end); err != nil {
		t.Fatal(err)
	}
	if part.I32()[0] != 3 || part.I32()[1] != 4 {
		t.Errorf("partial retrieve = %v", part.I32())
	}

	st := d.Stats()
	if st.H2DTransfers != 1 || st.D2HTransfers != 2 || st.H2DBytes != 20 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPlaceDataIntoPinnedFaster(t *testing.T) {
	d := newCUDA(t)
	data := vec.New(vec.Int32, 1<<20)

	pageable, _, err := d.PrepareMemory(vec.Int32, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	pinned, _, err := d.AddPinnedMemory(vec.Int32, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}

	base := d.CopyEngine().Avail()
	e1, err := d.PlaceDataInto(pageable, 0, data, base)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := d.PlaceDataInto(pinned, 0, data, e1)
	if err != nil {
		t.Fatal(err)
	}
	if e2-e1 >= e1-base {
		t.Errorf("pinned transfer (%v) should beat pageable (%v)", e2-e1, e1-base)
	}
}

func TestPlaceDataIntoBounds(t *testing.T) {
	d := newCUDA(t)
	buf, _, _ := d.PrepareMemory(vec.Int32, 10, 0)
	if _, err := d.PlaceDataInto(buf, 8, vec.New(vec.Int32, 5), 0); !errors.Is(err, devmem.ErrBadRange) {
		t.Errorf("out-of-range write: %v", err)
	}
}

func TestOOMPropagates(t *testing.T) {
	small := &simhw.Spec{
		Name: "tiny", Class: simhw.ClassGPU, MemoryBytes: 1 << 10,
		StreamGBps: 1, RandomGBps: 1, AtomicMops: 1,
		Links: simhw.Links{H2DPageable: simhw.LinkCurve{PeakGBps: 1}},
	}
	d := NewSim(SimConfig{Spec: small, SDK: &simhw.CUDAProfile, Format: devmem.FormatCUDA})
	if _, _, err := d.PlaceData(vec.New(vec.Int32, 1<<20), 0); !errors.Is(err, devmem.ErrOutOfMemory) {
		t.Errorf("expected OOM, got %v", err)
	}
}

func TestHostResidentZeroCopy(t *testing.T) {
	d := newOpenMP(t)
	host := vec.FromInt32([]int32{1, 2, 3})
	id, _, err := d.PlaceData(host, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Buffer(id)
	if err != nil {
		t.Fatal(err)
	}
	b.Data.I32()[0] = 42
	if host.I32()[0] != 42 {
		t.Error("host-resident place copied instead of adopting")
	}
}

func TestExecute(t *testing.T) {
	d := newCUDA(t)
	a, _, _ := d.PlaceData(vec.FromInt32([]int32{1, 2, 3}), 0)
	b, _, _ := d.PlaceData(vec.FromInt32([]int32{4, 5, 6}), 0)
	out, _, err := d.PrepareMemory(vec.Int64, 3, 0)
	if err != nil {
		t.Fatal(err)
	}

	end, err := d.Execute(ExecRequest{Kernel: "map_mul_i32_i64", Args: []devmem.BufferID{a, b, out}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Error("execution must consume virtual time")
	}
	ob, _ := d.Buffer(out)
	if ob.Data.I64()[2] != 18 {
		t.Errorf("kernel result = %v", ob.Data.I64())
	}
	st := d.Stats()
	if st.Launches != 1 || st.KernelTime < 0 || st.OverheadTime <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestExecuteErrors(t *testing.T) {
	d := newCUDA(t)
	if _, err := d.Execute(ExecRequest{Kernel: "nope"}, 0); !errors.Is(err, kernels.ErrUnknownKernel) {
		t.Errorf("unknown kernel: %v", err)
	}
	a, _, _ := d.PlaceData(vec.FromInt32([]int32{1}), 0)
	if _, err := d.Execute(ExecRequest{Kernel: "map_mul_i32_i64", Args: []devmem.BufferID{a, a, a}}, 0); err == nil {
		t.Error("type-mismatched args must fail")
	}
	if _, err := d.Execute(ExecRequest{Kernel: "map_mul_i32_i64", Args: []devmem.BufferID{a}}, 0); !errors.Is(err, kernels.ErrBadArgs) {
		t.Errorf("wrong arity: %v", err)
	}
	if _, err := d.Execute(ExecRequest{Kernel: "map_mul_i32_i64", Args: []devmem.BufferID{a, a, 999}}, 0); !errors.Is(err, devmem.ErrUnknownBuffer) {
		t.Errorf("unknown buffer: %v", err)
	}
}

func TestFormatMismatch(t *testing.T) {
	d := newCUDA(t)
	a, _, _ := d.PlaceData(vec.FromInt32([]int32{1}), 0)
	if _, err := d.TransformMemory(a, devmem.FormatThrust, 0); err != nil {
		t.Fatalf("transform: %v", err)
	}
	_, err := d.Execute(ExecRequest{Kernel: "filter_bitmap_i32", Args: []devmem.BufferID{a, a}, Params: []int64{0, 0, 0}}, 0)
	if !errors.Is(err, ErrFormatMismatch) {
		t.Errorf("foreign format: %v", err)
	}
	// Transforming back re-enables execution (with proper args).
	if _, err := d.TransformMemory(a, devmem.FormatCUDA, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTransformMemoryReady(t *testing.T) {
	d := newCUDA(t)
	a, done, _ := d.PlaceData(vec.FromInt32([]int32{1}), 0)
	end, err := d.TransformMemory(a, devmem.FormatThrust, done)
	if err != nil {
		t.Fatal(err)
	}
	if end <= done {
		t.Error("transform must consume time after its dependency")
	}
}

func TestRuntimeCompilation(t *testing.T) {
	// CUDA: precompiled; prepare_kernel unsupported, execution works.
	cuda := newCUDA(t)
	if err := cuda.PrepareKernel("x", "src"); !errors.Is(err, ErrNotSupported) {
		t.Errorf("CUDA prepare_kernel: %v", err)
	}

	// OpenCL: built-ins compiled at Initialize; custom kernels need
	// explicit preparation.
	reg := kernels.NewRegistry()
	reg.Register(&kernels.Kernel{
		Name: "custom_noop", NArgs: 0,
		Fn: func(*kernels.Ctx, []vec.Vector, []int64) error { return nil },
	})
	d := NewSim(SimConfig{Spec: &simhw.RTX2080Ti, SDK: &simhw.OpenCLGPUProfile, Format: devmem.FormatOpenCL, Registry: reg})

	// Before Initialize nothing is compiled.
	if _, err := d.Execute(ExecRequest{Kernel: "custom_noop"}, 0); !errors.Is(err, ErrKernelNotPrepared) {
		t.Errorf("pre-init execute: %v", err)
	}
	if err := d.Initialize(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Execute(ExecRequest{Kernel: "custom_noop"}, 0); err != nil {
		t.Errorf("post-init execute: %v", err)
	}
	st := d.Stats()
	if st.KernelsBuilt == 0 || st.CompileTime == 0 {
		t.Errorf("compilation not accounted: %+v", st)
	}

	// A kernel registered after Initialize needs PrepareKernel.
	reg.Register(&kernels.Kernel{
		Name: "late_kernel", NArgs: 0,
		Fn: func(*kernels.Ctx, []vec.Vector, []int64) error { return nil },
	})
	if _, err := d.Execute(ExecRequest{Kernel: "late_kernel"}, 0); !errors.Is(err, ErrKernelNotPrepared) {
		t.Errorf("unprepared late kernel: %v", err)
	}
	if err := d.PrepareKernel("late_kernel", "src"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Execute(ExecRequest{Kernel: "late_kernel"}, 0); err != nil {
		t.Errorf("prepared late kernel: %v", err)
	}
}

func TestCreateChunkAndViews(t *testing.T) {
	d := newCUDA(t)
	parent, _, _ := d.PlaceData(vec.FromInt32([]int32{0, 1, 2, 3, 4, 5, 6, 7}), 0)
	view, err := d.CreateChunk(parent, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	vb, _ := d.Buffer(view)
	if vb.Data.Len() != 4 || vb.Data.I32()[0] != 2 {
		t.Errorf("view = %v", vb.Data)
	}
	if err := d.DeleteMemory(view); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Buffer(view); err == nil {
		t.Error("deleted view still resolvable")
	}
}

func TestSyncCost(t *testing.T) {
	d := newOpenCL(t)
	end := d.Sync(100)
	if end <= 100 {
		t.Error("sync must consume time")
	}
}

func TestResetKeepsCompiledKernels(t *testing.T) {
	d := newOpenCL(t)
	a, _, _ := d.PlaceData(vec.FromInt32([]int32{1}), 0)
	_ = a
	d.Reset()
	if d.MemStats().LiveBuffers != 0 {
		t.Error("reset did not clear memory")
	}
	if d.CopyEngine().Avail() != 0 {
		t.Error("reset did not rewind timelines")
	}
	// Built-in kernels stay compiled across Reset.
	b, _, _ := d.PlaceData(vec.FromInt32([]int32{1}), 0)
	bm, _, _ := d.PrepareMemory(vec.Bits, 1, 0)
	if _, err := d.Execute(ExecRequest{Kernel: "filter_bitmap_i32", Args: []devmem.BufferID{b, bm}, Params: []int64{0, 0, 0}}, 0); err != nil {
		t.Errorf("execute after reset: %v", err)
	}
}

func TestEventMonotonicity(t *testing.T) {
	d := newCUDA(t)
	var last vclock.Time
	for i := 0; i < 5; i++ {
		_, done, err := d.PlaceData(vec.New(vec.Int32, 1024), last)
		if err != nil {
			t.Fatal(err)
		}
		if done <= last {
			t.Fatalf("event %d not after its dependency", i)
		}
		last = done
	}
}

func TestInfo(t *testing.T) {
	d := newOpenCL(t)
	info := d.Info()
	if info.SDK != "OpenCL" || !info.RuntimeCompile || !info.PinnedTransfer || info.HostResident {
		t.Errorf("info = %+v", info)
	}
	if info.PinnedRemapPenalty <= 0 {
		t.Error("OpenCL should carry the pinned remap pathology")
	}
	if newCUDA(t).Info().PinnedRemapPenalty != 0 {
		t.Error("CUDA should not carry the pinned remap pathology")
	}
	if ID(3).String() != "dev3" {
		t.Error("ID diagnostics")
	}
}
