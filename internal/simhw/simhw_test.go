package simhw

import (
	"testing"
	"testing/quick"

	"github.com/adamant-db/adamant/internal/vclock"
)

func TestLinkCurveShape(t *testing.T) {
	l := LinkCurve{PeakGBps: 10, Latency: 10 * vclock.Microsecond}
	if l.Cost(0) != l.Latency {
		t.Error("zero-byte transfer should cost the latency")
	}
	// Effective bandwidth ramps with transfer size toward the peak.
	small := l.EffectiveGBps(1 << 10)
	big := l.EffectiveGBps(1 << 30)
	if small >= big {
		t.Errorf("bandwidth did not ramp: %v vs %v", small, big)
	}
	if big > 10 || big < 9 {
		t.Errorf("large transfer should approach peak: %v", big)
	}
}

func TestLinkCurveMonotonicProperty(t *testing.T) {
	l := LinkCurve{PeakGBps: 6.2, Latency: 12 * vclock.Microsecond}
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return l.Cost(x) <= l.Cost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpecCosts(t *testing.T) {
	s := &RTX2080Ti
	if s.StreamCost(0) != 0 || s.RandomCost(0) != 0 || s.AtomicCost(0, 1) != 0 {
		t.Error("zero work should cost zero")
	}
	if s.StreamCost(1<<30) >= s.RandomCost(1<<30) {
		t.Error("random access must cost more than streaming")
	}
	// Contention scales atomics; sub-1 contention clamps.
	if s.AtomicCost(1000, 2) <= s.AtomicCost(1000, 1) {
		t.Error("contention should increase atomic cost")
	}
	if s.AtomicCost(1000, 0.5) != s.AtomicCost(1000, 1) {
		t.Error("contention below 1 should clamp")
	}
}

func TestHostResident(t *testing.T) {
	if RTX2080Ti.HostResident() || A100.HostResident() {
		t.Error("GPUs are not host resident")
	}
	if !CoreI78700.HostResident() || !XeonGold5220R.HostResident() {
		t.Error("CPUs are host resident")
	}
}

// TestPaperRelations checks the cross-device/SDK orderings the paper's
// figures rely on.
func TestPaperRelations(t *testing.T) {
	const gb = int64(1) << 30

	// Figure 3: CUDA transfers beat OpenCL on the same link; pinned beats
	// pageable for both SDKs.
	for _, gpu := range []*Spec{&RTX2080Ti, &A100} {
		cudaPag := CUDAProfile.Transfer(gpu.Links.H2DPageable, gb)
		oclPag := OpenCLGPUProfile.Transfer(gpu.Links.H2DPageable, gb)
		if cudaPag >= oclPag {
			t.Errorf("%s: CUDA pageable (%v) should beat OpenCL (%v)", gpu.Name, cudaPag, oclPag)
		}
		cudaPin := CUDAProfile.TransferPinned(gpu.Links.H2DPinned, gb)
		if cudaPin >= cudaPag {
			t.Errorf("%s: CUDA pinned (%v) should beat pageable (%v)", gpu.Name, cudaPin, cudaPag)
		}
		oclPin := OpenCLGPUProfile.TransferPinned(gpu.Links.H2DPinned, gb)
		oclPagCost := OpenCLGPUProfile.Transfer(gpu.Links.H2DPageable, gb)
		if oclPin >= oclPagCost {
			t.Errorf("%s: OpenCL pinned (%v) should still beat pageable (%v)", gpu.Name, oclPin, oclPagCost)
		}
	}

	// A100 moves data faster than the 2080 Ti.
	if CUDAProfile.Transfer(A100.Links.H2DPinned, gb) >= CUDAProfile.Transfer(RTX2080Ti.Links.H2DPinned, gb) {
		t.Error("A100 transfers should beat 2080 Ti")
	}

	// Figure 9(a): OpenCL beats OpenMP on CPUs for streaming kernels.
	for _, cpu := range []*Spec{&CoreI78700, &XeonGold5220R} {
		if OpenCLCPUProfile.Price(cpu, Traffic{Seq: gb}) >= OpenMPProfile.Price(cpu, Traffic{Seq: gb}) {
			t.Errorf("%s: OpenCL streaming should beat OpenMP", cpu.Name)
		}
	}

	// Figure 10: OpenCL's per-launch handling exceeds CUDA's and OpenMP's.
	oclLaunch := OpenCLGPUProfile.Launch(&RTX2080Ti, 4)
	cudaLaunch := CUDAProfile.Launch(&RTX2080Ti, 4)
	if oclLaunch <= cudaLaunch {
		t.Error("OpenCL launch handling should exceed CUDA")
	}
	if OpenCLCPUProfile.Launch(&CoreI78700, 4) <= OpenMPProfile.Launch(&CoreI78700, 4) {
		t.Error("OpenCL launch handling should exceed OpenMP")
	}

	// Figure 9(c): OpenCL degrades more with group counts than CUDA.
	if OpenCLGPUProfile.GroupScalePenalty <= CUDAProfile.GroupScalePenalty {
		t.Error("OpenCL group scaling penalty should exceed CUDA")
	}

	// GPUs out-stream CPUs.
	if CUDAProfile.Price(&RTX2080Ti, Traffic{Seq: gb}) >= OpenMPProfile.Price(&CoreI78700, Traffic{Seq: gb}) {
		t.Error("GPU streaming should beat CPU")
	}
}

func TestSDKScaleClamps(t *testing.T) {
	p := SDKProfile{Name: "x", TransferEfficiency: 0, ComputeEfficiency: -1, PinnedEfficiency: 2}
	link := LinkCurve{PeakGBps: 10}
	if p.Transfer(link, 1<<20) != link.Cost(1<<20) {
		t.Error("zero efficiency should clamp to 1")
	}
	if p.TransferPinned(link, 1<<20) != link.Cost(1<<20) {
		t.Error("out-of-range pinned efficiency should clamp to 1")
	}
	if p.Price(&RTX2080Ti, Traffic{Seq: 1 << 20}) != RTX2080Ti.StreamCost(1<<20) {
		t.Error("negative compute efficiency should clamp to 1")
	}
}

func TestSetups(t *testing.T) {
	if Setup1.GPU.Name != RTX2080Ti.Name || Setup2.GPU.Name != A100.Name {
		t.Error("setups do not match Table II")
	}
	if len(AllGPUs()) != 4 {
		t.Error("capacity analysis expects 4 GPUs")
	}
	if RTX2080Ti.String() == "" || ClassGPU.String() != "gpu" || ClassCPU.String() != "cpu" {
		t.Error("diagnostics broken")
	}
}
