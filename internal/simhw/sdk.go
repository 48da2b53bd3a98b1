package simhw

import (
	"math"

	"github.com/adamant-db/adamant/internal/vclock"
)

// SDKProfile captures how a programming SDK behaves on top of a raw device.
// The paper shows that the SDK choice alone changes transfer bandwidth
// (Figure 3), per-kernel handling overhead (Figure 10), and the scaling of
// contended primitives (Figure 9); these knobs encode exactly those effects.
type SDKProfile struct {
	Name string

	// TransferEfficiency scales the device link bandwidth. OpenCL's
	// translation layer achieves a consistently lower rate than CUDA.
	TransferEfficiency float64
	// TransferLatency is added to every transfer on top of the link's own
	// setup latency.
	TransferLatency vclock.Duration

	// LaunchOverhead is added to the device's kernel dispatch cost.
	LaunchOverhead vclock.Duration
	// ArgMapCost is charged once per kernel argument. OpenCL requires the
	// host to map every buffer to the kernel explicitly (clSetKernelArg),
	// which the paper identifies as its dominant handling overhead.
	ArgMapCost vclock.Duration
	// CompileCost is the runtime kernel compilation cost charged by
	// prepare_kernel. Zero for SDKs without runtime compilation.
	CompileCost vclock.Duration

	// ComputeEfficiency scales the device's streaming/random throughput.
	// OpenMP's explicitly scheduled hardware threads leave bandwidth on
	// the table relative to OpenCL's internal scheduling on CPUs.
	ComputeEfficiency float64
	// AtomicEfficiency scales atomic throughput.
	AtomicEfficiency float64

	// GroupScalePenalty is the fractional slowdown of hash aggregation
	// per doubling of the group count (static thread scheduling makes
	// OpenCL degrade sharply; CUDA stays nearly flat).
	GroupScalePenalty float64
	// BuildScalePenalty is the fractional slowdown of hash-table inserts
	// per doubling of the table's slot count beyond 2^12 slots (larger
	// shared tables thrash more cache lines under contended insertion).
	// Probes pay 0.8x of it, without the atomic path.
	BuildScalePenalty float64
	// MaterializePenalty multiplies the cost of extracting values through
	// a bitmap. GPUs pay for cooperative bit extraction across threads;
	// CPUs process 32-value runs per thread and barely notice. Zero
	// means 1.
	MaterializePenalty float64
	// ProbePenalty multiplies hash-probe cost. The paper observes CUDA's
	// probe underperforming OpenCL's (thread ordering on global memory
	// accesses, Figure 9(e)). Zero means 1.
	ProbePenalty float64

	// PinnedEfficiency scales bandwidth on the pinned links only. OpenCL
	// re-maps the host pointer on every enqueue, so its pinned path keeps
	// less of the link's peak than CUDA's (the paper's Figure 3 gap and
	// the Q4 pathology in Figure 11).
	PinnedEfficiency float64
	// PinnedRemapPenalty models the OpenCL driver pathology the paper
	// observes on Q4: when a pipeline has too few kernels between writes
	// to a pinned region, the driver re-maps the host pointer
	// synchronously, costing this multiple of the transfer time again.
	// Zero disables it (CUDA's page-locked memory needs no re-mapping).
	PinnedRemapPenalty float64
	// SyncCost is the host-side price of one cross-thread synchronization
	// at a chunk boundary (the fetched_until/processed_until handshake of
	// Algorithms 2-3). Charged per chunk by the overlapped execution
	// models; OpenCL's event machinery makes it expensive.
	SyncCost vclock.Duration

	// SupportsRuntimeCompile reports whether prepare_kernel is available
	// (the paper makes kernel management optional for SDKs without it).
	SupportsRuntimeCompile bool
	// SupportsPinned reports whether add_pinned_memory uses a genuinely
	// faster host-visible allocation.
	SupportsPinned bool
}

// TransferPinned returns the cost of moving bytes over a pinned link under
// this SDK, applying the SDK's pinned-path efficiency.
func (p *SDKProfile) TransferPinned(link LinkCurve, bytes int64) vclock.Duration {
	eff := p.PinnedEfficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	scaled := LinkCurve{PeakGBps: link.PeakGBps * eff, Latency: link.Latency}
	return p.Transfer(scaled, bytes)
}

// Transfer returns the cost of moving bytes over the given link under this
// SDK.
func (p *SDKProfile) Transfer(link LinkCurve, bytes int64) vclock.Duration {
	eff := p.TransferEfficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	scaled := LinkCurve{PeakGBps: link.PeakGBps * eff, Latency: link.Latency}
	return scaled.Cost(bytes) + p.TransferLatency
}

// Launch returns the fixed dispatch cost of one kernel with the given number
// of buffer arguments on the given device.
func (p *SDKProfile) Launch(spec *Spec, args int) vclock.Duration {
	return spec.KernelLaunch + p.LaunchOverhead + vclock.Duration(int64(p.ArgMapCost)*int64(args))
}

// Traffic is the memory work one kernel launch generates, declared by the
// kernel from its argument shapes and scalar parameters (never from the
// values in its buffers). Price turns it into virtual time.
type Traffic struct {
	// Seq is the bytes read or written in sequential, coalesced order.
	Seq int64
	// Extract is the bytes streamed while extracting values through a
	// bitmap; they pay MaterializePenalty on top of streaming.
	Extract int64
	// Random is the bytes gathered or scattered at data-dependent
	// addresses.
	Random int64
	// Probe is the bytes of hash-table lookups: random access that slows
	// with the table's Slots and pays ProbePenalty.
	Probe int64
	// Atomics is the number of contended atomic updates into one shared
	// table; they slow with the table's Slots and with Groups.
	Atomics int64
	// Slots is the slot count of the hash table Atomics and Probe hit.
	Slots int64
	// Groups is the number of groups Atomics spread over; 0 when unknown.
	Groups int64
}

// tableKnee is the slot count past which a shared hash table thrashes
// caches and BuildScalePenalty starts to apply.
const tableKnee = 1 << 12

// Price returns the virtual time of one kernel body that generates t on
// spec under this SDK, excluding the fixed dispatch cost (Launch). It is
// the one place the SDK's contention and extraction penalties apply.
func (p *SDKProfile) Price(spec *Spec, t Traffic) vclock.Duration {
	compute := p.ComputeEfficiency
	d := scale(spec.StreamCost(t.Seq), compute) + scale(spec.RandomCost(t.Random), compute)
	d += vclock.Duration(float64(scale(spec.StreamCost(t.Extract), compute)) * orOne(p.MaterializePenalty))

	probe, atomic := 1.0, 1.0
	if t.Slots > tableKnee {
		doublings := math.Log2(float64(t.Slots) / tableKnee)
		probe += p.BuildScalePenalty * 0.8 * doublings
		atomic += p.BuildScalePenalty * doublings
	}
	if t.Groups > 1 {
		atomic += p.GroupScalePenalty * math.Log2(float64(t.Groups))
	}
	d += vclock.Duration(float64(scale(spec.RandomCost(t.Probe), compute)) * probe * orOne(p.ProbePenalty))
	return d + scale(spec.AtomicCost(t.Atomics, atomic), p.AtomicEfficiency)
}

func scale(d vclock.Duration, eff float64) vclock.Duration {
	return vclock.Duration(float64(d) / orOne(eff))
}

// orOne defaults an unset (non-positive) factor to 1.
func orOne(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return x
}

// Predefined SDK profiles, calibrated against the relative behaviours the
// paper reports for its four driver configurations.
var (
	// CUDAProfile models the vendor SDK: best transfer rates, cheap
	// launches, no per-argument mapping, flat group scaling.
	CUDAProfile = SDKProfile{
		Name:                   "CUDA",
		TransferEfficiency:     1.0,
		TransferLatency:        0,
		LaunchOverhead:         2 * vclock.Microsecond,
		ArgMapCost:             0,
		CompileCost:            0,
		ComputeEfficiency:      1.0,
		AtomicEfficiency:       1.0,
		GroupScalePenalty:      0.06,
		BuildScalePenalty:      0.26,
		MaterializePenalty:     2.3,
		ProbePenalty:           1.6,
		PinnedEfficiency:       1.0,
		SyncCost:               6 * vclock.Microsecond,
		SupportsRuntimeCompile: false,
		SupportsPinned:         true,
	}

	// OpenCLGPUProfile models the wrapper SDK on a GPU: translation
	// overhead on transfers, explicit data mapping per kernel argument,
	// runtime compilation, and statically scheduled threads that degrade
	// with group counts.
	OpenCLGPUProfile = SDKProfile{
		Name:                   "OpenCL",
		TransferEfficiency:     0.72,
		TransferLatency:        8 * vclock.Microsecond,
		LaunchOverhead:         9 * vclock.Microsecond,
		ArgMapCost:             3 * vclock.Microsecond,
		CompileCost:            55 * vclock.Millisecond,
		ComputeEfficiency:      0.97,
		AtomicEfficiency:       0.90,
		GroupScalePenalty:      0.34,
		BuildScalePenalty:      0.17,
		MaterializePenalty:     2.5,
		ProbePenalty:           1.1,
		PinnedEfficiency:       0.75,
		PinnedRemapPenalty:     5.0,
		SyncCost:               60 * vclock.Microsecond,
		SupportsRuntimeCompile: true,
		SupportsPinned:         true,
	}

	// OpenCLCPUProfile models OpenCL driving the host CPU. Its internal
	// scheduling outperforms OpenMP's explicit thread scheduling for
	// streaming kernels.
	OpenCLCPUProfile = SDKProfile{
		Name:                   "OpenCL",
		TransferEfficiency:     1.0,
		TransferLatency:        2 * vclock.Microsecond,
		LaunchOverhead:         7 * vclock.Microsecond,
		ArgMapCost:             2 * vclock.Microsecond,
		CompileCost:            40 * vclock.Millisecond,
		ComputeEfficiency:      0.96,
		AtomicEfficiency:       0.95,
		GroupScalePenalty:      0.04,
		BuildScalePenalty:      0.02,
		MaterializePenalty:     0.45,
		PinnedEfficiency:       1.0,
		SyncCost:               25 * vclock.Microsecond,
		SupportsRuntimeCompile: true,
		SupportsPinned:         false,
	}

	// OpenMPProfile models the CPU-native SDK: no transfers to speak of,
	// cheap launches, but explicitly scheduled hardware threads that cost
	// streaming bandwidth.
	OpenMPProfile = SDKProfile{
		Name:                   "OpenMP",
		TransferEfficiency:     1.0,
		TransferLatency:        500 * vclock.Nanosecond,
		LaunchOverhead:         3 * vclock.Microsecond,
		ArgMapCost:             0,
		CompileCost:            0,
		ComputeEfficiency:      0.79,
		AtomicEfficiency:       0.92,
		GroupScalePenalty:      0.05,
		BuildScalePenalty:      0.02,
		MaterializePenalty:     0.50,
		PinnedEfficiency:       1.0,
		SyncCost:               4 * vclock.Microsecond,
		SupportsRuntimeCompile: false,
		SupportsPinned:         false,
	}
)
