package experiments

import (
	"fmt"
	"io"

	"github.com/adamant-db/adamant/internal/kernels"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vclock"
)

// Table2 reproduces Table II: the two evaluation environments, as
// modelled.
func Table2(cfg Config, w io.Writer) error {
	t := NewTable("Table II: device information (simulated)",
		"", "Setup 1", "Setup 2")
	s1, s2 := simhw.Setup1, simhw.Setup2
	t.Add("CPU", s1.CPU.Name, s2.CPU.Name)
	t.Add("CPU cores", s1.CPU.Cores, s2.CPU.Cores)
	t.Add("CPU stream GB/s", s1.CPU.StreamGBps, s2.CPU.StreamGBps)
	t.Add("GPU", s1.GPU.Name, s2.GPU.Name)
	t.Add("GPU memory GiB", gib(s1.GPU.MemoryBytes), gib(s2.GPU.MemoryBytes))
	t.Add("GPU stream GB/s", s1.GPU.StreamGBps, s2.GPU.StreamGBps)
	t.Add("PCIe pinned GB/s (H2D)", s1.GPU.Links.H2DPinned.PeakGBps, s2.GPU.Links.H2DPinned.PeakGBps)
	t.Add("PCIe pageable GB/s (H2D)", s1.GPU.Links.H2DPageable.PeakGBps, s2.GPU.Links.H2DPageable.PeakGBps)
	t.Add("SDKs", "OpenCL, OpenMP, CUDA", "OpenCL, OpenMP, CUDA")
	t.Add("OpenCL kernel compile (startup)",
		startupCompile(&simhw.OpenCLGPUProfile), startupCompile(&simhw.OpenCLCPUProfile))
	return report(w, t)
}

// startupCompile reports the one-time runtime-compilation cost of the
// built-in kernel set under an SDK with a runtime compiler.
func startupCompile(p *simhw.SDKProfile) string {
	n := len(kernels.NewRegistry().Names())
	total := vclock.Duration(int64(p.CompileCost) * int64(n))
	return fmt.Sprintf("%d kernels, %s", n, total)
}
