// Plugging a new co-processor: the paper's headline claim is that a new
// device or SDK integrates through the ten device-layer interfaces without
// reworking any other component of the query engine.
//
// This example plugs a hypothetical "oneAPI"-programmed accelerator built
// from a custom hardware spec and a custom SDK profile, registers a custom
// kernel implementation for the MAP primitive alongside the built-ins, and
// runs the same plan on the stock CUDA GPU and on the new device — no
// runtime changes required.
package main

import (
	"fmt"
	"log"

	adamant "github.com/adamant-db/adamant"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/kernels"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

func main() {
	eng := adamant.NewEngine()
	cuda, err := eng.Plug(adamant.RTX2080Ti, adamant.CUDA)
	if err != nil {
		log.Fatal(err)
	}

	// A new SDK: oneAPI-style, with runtime kernel compilation and its
	// own memory-object format. Only data points change — no executor
	// code.
	oneAPI := simhw.SDKProfile{
		Name:                   "oneAPI",
		TransferEfficiency:     0.92,
		TransferLatency:        3 * vclock.Microsecond,
		LaunchOverhead:         4 * vclock.Microsecond,
		ArgMapCost:             500 * vclock.Nanosecond,
		CompileCost:            30 * vclock.Millisecond,
		ComputeEfficiency:      0.98,
		AtomicEfficiency:       0.95,
		GroupScalePenalty:      0.08,
		BuildScalePenalty:      0.15,
		MaterializePenalty:     2.0,
		ProbePenalty:           1.2,
		PinnedEfficiency:       0.95,
		SyncCost:               12 * vclock.Microsecond,
		SupportsRuntimeCompile: true,
		SupportsPinned:         true,
	}

	// A hypothetical accelerator card behind it.
	xpu := simhw.Spec{
		Name:         "Imaginary XPU-9",
		Class:        simhw.ClassGPU,
		MemoryBytes:  16 * simhw.GiB,
		Cores:        2048,
		StreamGBps:   700,
		RandomGBps:   120,
		AtomicMops:   1000,
		KernelLaunch: 4 * vclock.Microsecond,
		Links: simhw.Links{
			H2DPageable: simhw.LinkCurve{PeakGBps: 14, Latency: 8 * vclock.Microsecond},
			H2DPinned:   simhw.LinkCurve{PeakGBps: 26, Latency: 6 * vclock.Microsecond},
			D2HPageable: simhw.LinkCurve{PeakGBps: 13, Latency: 8 * vclock.Microsecond},
			D2HPinned:   simhw.LinkCurve{PeakGBps: 25, Latency: 6 * vclock.Microsecond},
		},
	}

	// The kernel registry can also carry custom implementations: here a
	// fused square-and-scale MAP variant registered under its own name.
	// It streams each argument once, so it declares no Traffic: the
	// device prices that default under whichever SDK runs it.
	registry := kernels.NewRegistry()
	registry.Register(&kernels.Kernel{
		Name:    "map_square_scale_i32_i64",
		NArgs:   2,
		NParams: 1,
		Source:  "__kernel map_square_scale(a, out, f) { out[i] = (long)a[i]*a[i]*f; }",
		Fn: func(ctx *kernels.Ctx, args []vec.Vector, params []int64) error {
			a, out := args[0].I32(), args[1].I64()
			f := params[0]
			for i := range a {
				out[i] = int64(a[i]) * int64(a[i]) * f
			}
			return nil
		},
	})

	xpuDev, err := eng.PlugDevice(device.NewSim(device.SimConfig{
		Spec:     &xpu,
		SDK:      &oneAPI,
		Format:   devmem.FormatRaw,
		Registry: registry,
	}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("plugged devices:")
	for _, d := range eng.Devices() {
		fmt.Printf("  %-28s sdk=%-7s runtime-compile=%v\n", d.Name, d.SDK, d.RuntimeCompile)
	}

	// The same plan runs unchanged on both devices.
	const n = 4 << 20
	values := make([]int32, n)
	for i := range values {
		values[i] = int32(i % 2000)
	}

	for _, target := range []struct {
		name string
		id   adamant.DeviceID
	}{
		{"CUDA GPU", cuda},
		{"oneAPI XPU", xpuDev},
	} {
		plan := eng.NewPlan().On(target.id)
		col := plan.ScanInt32("values", values)
		keep := plan.Filter(col, adamant.Ge, 1000)
		kept := plan.Materialize(col, keep)
		plan.Return("sum", plan.SumInt64(plan.CastInt64(kept)))

		res, err := eng.Execute(plan, adamant.ExecOptions{Model: adamant.FourPhasePipelined})
		if err != nil {
			log.Fatalf("%s: %v", target.name, err)
		}
		fmt.Printf("\n%s: sum=%d, simulated %v (%.1f MiB H2D)\n",
			target.name, res.Int64("sum")[0], res.Stats().Elapsed,
			float64(res.Stats().H2DBytes)/(1<<20))
	}
}
