// Package simhw models the co-processor hardware that ADAMANT's experiments
// run on.
//
// The paper evaluates on two physical setups (Table II: an i7-8700 with a
// GeForce RTX 2080 Ti, and a Xeon Gold 5220R with an Nvidia A100), accessed
// through three SDKs (CUDA, OpenCL, OpenMP). This package substitutes those
// machines with calibrated software models: a Spec describes the raw device
// (memory capacity, interconnect bandwidth curves, compute throughput), and
// an SDKProfile describes the software stack's efficiency on top of it
// (OpenCL's translation overheads, OpenMP's explicit thread scheduling, CUDA
// kernel launch latency). Kernels declare the Traffic a launch generates and
// SDKProfile.Price combines it with both into virtual execution time, which
// is what lets the experiments reproduce the paper's relative results
// (Figures 3, 5, 9, 10, 11) deterministically on any host.
package simhw

import (
	"fmt"

	"github.com/adamant-db/adamant/internal/vclock"
)

// Class distinguishes broad device architectures.
type Class int

// Device classes.
const (
	ClassCPU Class = iota
	ClassGPU
)

// String returns "cpu" or "gpu".
func (c Class) String() string {
	if c == ClassGPU {
		return "gpu"
	}
	return "cpu"
}

// LinkCurve models the effective cost of moving bytes across an interconnect
// (PCIe for discrete GPUs, memory bus for host-resident devices) as a fixed
// per-transfer latency plus a bandwidth term. Effective bandwidth therefore
// ramps up with transfer size and saturates at PeakGBps, matching the shape
// of the paper's Figure 3.
type LinkCurve struct {
	PeakGBps float64         // asymptotic bandwidth in GB/s (1e9 bytes)
	Latency  vclock.Duration // fixed setup latency per transfer
}

// Cost returns the virtual time to move the given number of bytes.
func (l LinkCurve) Cost(bytes int64) vclock.Duration {
	if bytes <= 0 {
		return l.Latency
	}
	ns := float64(bytes) / l.PeakGBps // GB/s == bytes/ns
	return l.Latency + vclock.Duration(ns)
}

// EffectiveGBps reports the achieved bandwidth for a transfer of the given
// size, as plotted in Figure 3.
func (l LinkCurve) EffectiveGBps(bytes int64) float64 {
	c := l.Cost(bytes)
	if c <= 0 {
		return l.PeakGBps
	}
	return float64(bytes) / float64(c)
}

// Links groups the four transfer directions/modes a discrete device exposes.
type Links struct {
	H2DPageable LinkCurve
	H2DPinned   LinkCurve
	D2HPageable LinkCurve
	D2HPinned   LinkCurve
}

// Spec describes one simulated processor. The throughput fields are
// calibrated against published microbenchmarks for the corresponding parts,
// but only their ratios matter for reproducing the paper's findings.
type Spec struct {
	Name        string
	Class       Class
	MemoryBytes int64 // device memory capacity
	Cores       int   // parallel hardware lanes (CPU threads / GPU SM lanes)

	// StreamGBps is the attainable memory bandwidth for sequential,
	// coalesced kernels (map, filter, reduce).
	StreamGBps float64
	// RandomGBps is the attainable bandwidth for data-dependent
	// gather/scatter access (hash probes, materialization).
	RandomGBps float64
	// AtomicMops is the device-wide throughput of conflicting atomic
	// read-modify-write operations, in millions per second.
	AtomicMops float64
	// KernelLaunch is the fixed cost of dispatching one kernel.
	KernelLaunch vclock.Duration

	Links Links
}

// HostResident reports whether the device shares the host address space, in
// which case place_data/retrieve_data degenerate to no-copy registration.
func (s *Spec) HostResident() bool { return s.Class == ClassCPU }

// StreamCost returns the time for a kernel that touches the given number of
// bytes with sequential access.
func (s *Spec) StreamCost(bytes int64) vclock.Duration {
	if bytes <= 0 {
		return 0
	}
	return vclock.Duration(float64(bytes) / s.StreamGBps)
}

// RandomCost returns the time for a kernel performing data-dependent access
// over the given number of bytes.
func (s *Spec) RandomCost(bytes int64) vclock.Duration {
	if bytes <= 0 {
		return 0
	}
	return vclock.Duration(float64(bytes) / s.RandomGBps)
}

// AtomicCost returns the time for n device-wide conflicting atomic
// operations, scaled by a contention factor (1 = nominal contention).
func (s *Spec) AtomicCost(n int64, contention float64) vclock.Duration {
	if n <= 0 {
		return 0
	}
	if contention < 1 {
		contention = 1
	}
	ns := float64(n) / s.AtomicMops * 1e3 * contention // Mops = ops/µs → ns per op = 1e3/Mops
	return vclock.Duration(ns)
}

func (s *Spec) String() string {
	return fmt.Sprintf("%s (%s, %.1f GiB)", s.Name, s.Class, float64(s.MemoryBytes)/(1<<30))
}

// GiB is a convenience for capacity literals.
const GiB = int64(1) << 30

// Predefined device specs. GPU bandwidth and capacity figures follow the
// vendors' data sheets; PCIe curves reflect gen3 x16 (2080 Ti and older) and
// gen4 x16 (A100), with pageable transfers at roughly half the pinned rate,
// as the paper's Figure 3 reports.
var (
	RTX2080Ti = Spec{
		Name:         "GeForce RTX 2080 Ti",
		Class:        ClassGPU,
		MemoryBytes:  11 * GiB,
		Cores:        4352,
		StreamGBps:   550,
		RandomGBps:   95,
		AtomicMops:   800,
		KernelLaunch: 6 * vclock.Microsecond,
		Links: Links{
			H2DPageable: LinkCurve{PeakGBps: 6.2, Latency: 12 * vclock.Microsecond},
			H2DPinned:   LinkCurve{PeakGBps: 12.1, Latency: 9 * vclock.Microsecond},
			D2HPageable: LinkCurve{PeakGBps: 5.8, Latency: 12 * vclock.Microsecond},
			D2HPinned:   LinkCurve{PeakGBps: 12.8, Latency: 9 * vclock.Microsecond},
		},
	}

	A100 = Spec{
		Name:         "Nvidia A100",
		Class:        ClassGPU,
		MemoryBytes:  40 * GiB,
		Cores:        6912,
		StreamGBps:   1400,
		RandomGBps:   240,
		AtomicMops:   1800,
		KernelLaunch: 5 * vclock.Microsecond,
		Links: Links{
			H2DPageable: LinkCurve{PeakGBps: 9.6, Latency: 10 * vclock.Microsecond},
			H2DPinned:   LinkCurve{PeakGBps: 24.5, Latency: 7 * vclock.Microsecond},
			D2HPageable: LinkCurve{PeakGBps: 9.1, Latency: 10 * vclock.Microsecond},
			D2HPinned:   LinkCurve{PeakGBps: 25.9, Latency: 7 * vclock.Microsecond},
		},
	}

	GTX1050 = Spec{
		Name:         "GeForce GTX 1050",
		Class:        ClassGPU,
		MemoryBytes:  4 * GiB,
		Cores:        640,
		StreamGBps:   110,
		RandomGBps:   22,
		AtomicMops:   230,
		KernelLaunch: 8 * vclock.Microsecond,
		Links: Links{
			H2DPageable: LinkCurve{PeakGBps: 4.8, Latency: 14 * vclock.Microsecond},
			H2DPinned:   LinkCurve{PeakGBps: 10.9, Latency: 11 * vclock.Microsecond},
			D2HPageable: LinkCurve{PeakGBps: 4.5, Latency: 14 * vclock.Microsecond},
			D2HPinned:   LinkCurve{PeakGBps: 11.4, Latency: 11 * vclock.Microsecond},
		},
	}

	GTX1080 = Spec{
		Name:         "GeForce GTX 1080",
		Class:        ClassGPU,
		MemoryBytes:  8 * GiB,
		Cores:        2560,
		StreamGBps:   300,
		RandomGBps:   55,
		AtomicMops:   520,
		KernelLaunch: 7 * vclock.Microsecond,
		Links: Links{
			H2DPageable: LinkCurve{PeakGBps: 5.9, Latency: 13 * vclock.Microsecond},
			H2DPinned:   LinkCurve{PeakGBps: 11.8, Latency: 10 * vclock.Microsecond},
			D2HPageable: LinkCurve{PeakGBps: 5.5, Latency: 13 * vclock.Microsecond},
			D2HPinned:   LinkCurve{PeakGBps: 12.3, Latency: 10 * vclock.Microsecond},
		},
	}

	CoreI78700 = Spec{
		Name:         "Intel Core i7-8700",
		Class:        ClassCPU,
		MemoryBytes:  32 * GiB,
		Cores:        12,
		StreamGBps:   38,
		RandomGBps:   9,
		AtomicMops:   420,
		KernelLaunch: 900 * vclock.Nanosecond,
		Links: Links{
			// Host-resident: "transfers" are address-space registrations.
			H2DPageable: LinkCurve{PeakGBps: 38, Latency: 300 * vclock.Nanosecond},
			H2DPinned:   LinkCurve{PeakGBps: 38, Latency: 300 * vclock.Nanosecond},
			D2HPageable: LinkCurve{PeakGBps: 38, Latency: 300 * vclock.Nanosecond},
			D2HPinned:   LinkCurve{PeakGBps: 38, Latency: 300 * vclock.Nanosecond},
		},
	}

	XeonGold5220R = Spec{
		Name:         "Intel Xeon Gold 5220R",
		Class:        ClassCPU,
		MemoryBytes:  192 * GiB,
		Cores:        48,
		StreamGBps:   105,
		RandomGBps:   21,
		AtomicMops:   950,
		KernelLaunch: 1100 * vclock.Nanosecond,
		Links: Links{
			H2DPageable: LinkCurve{PeakGBps: 105, Latency: 350 * vclock.Nanosecond},
			H2DPinned:   LinkCurve{PeakGBps: 105, Latency: 350 * vclock.Nanosecond},
			D2HPageable: LinkCurve{PeakGBps: 105, Latency: 350 * vclock.Nanosecond},
			D2HPinned:   LinkCurve{PeakGBps: 105, Latency: 350 * vclock.Nanosecond},
		},
	}
)

// Setup pairs the host CPU and the discrete GPU of one evaluation machine,
// mirroring Table II of the paper.
type Setup struct {
	Name string
	CPU  Spec
	GPU  Spec
}

// The paper's two environments.
var (
	Setup1 = Setup{Name: "Setup 1", CPU: CoreI78700, GPU: RTX2080Ti}
	Setup2 = Setup{Name: "Setup 2", CPU: XeonGold5220R, GPU: A100}
)

// AllGPUs lists the GPU specs used in the capacity analysis of Figure 7.
func AllGPUs() []Spec {
	return []Spec{GTX1050, GTX1080, RTX2080Ti, A100}
}

// Slowed returns a copy of s that is k times slower everywhere: compute
// throughput (stream, random, atomic) and every link's peak bandwidth are
// divided by k, and the kernel launch and link latencies multiplied by it.
// It models a straggling device in virtual time, whether a query on it is
// compute-, launch- or transfer-bound.
func (s *Spec) Slowed(k float64) *Spec {
	b := *s
	b.StreamGBps /= k
	b.RandomGBps /= k
	b.AtomicMops /= k
	b.KernelLaunch = vclock.Duration(float64(b.KernelLaunch) * k)
	for _, l := range []*LinkCurve{&b.Links.H2DPageable, &b.Links.H2DPinned, &b.Links.D2HPageable, &b.Links.D2HPinned} {
		l.PeakGBps /= k
		l.Latency = vclock.Duration(float64(l.Latency) * k)
	}
	return &b
}
