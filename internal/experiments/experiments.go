// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): transfer bandwidth profiles (Figure 3), map/reduce
// throughput (Figure 5), the memory-capacity analysis and footprint trace
// (Figure 7), primitive profiles (Figure 9), abstraction-layer overhead
// (Figure 10), the execution-model comparison and the HeavyDB baseline
// (Figure 11), and the device table (Table II).
//
// Each experiment is a named generator that runs the corresponding
// workload through the real ADAMANT stack (devices, task layer, execution
// models) and emits the same rows/series the paper reports. Absolute
// numbers come from the calibrated virtual-time models; the claims under
// test are the relative shapes.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/driver/simomp"
	"github.com/adamant-db/adamant/internal/driver/simopencl"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/tpch"
)

// Config scales the experiments.
type Config struct {
	// Quick shrinks workloads for CI-speed runs; the full profile matches
	// the paper's sizes (scaled by Ratio where physical data is needed).
	Quick bool
	// Ratio down-scales generated TPC-H data from the nominal scale
	// factors. Zero selects 1/64 (full) or 1/1024 (quick).
	Ratio float64
	// Seed feeds the data generators.
	Seed uint64
	// Ctx, when set, cancels in-flight query executions at chunk
	// boundaries (the CLI wires SIGINT here). Nil means background.
	Ctx context.Context
}

// report writes the tables as aligned text, in order.
func report(w io.Writer, tables ...*Table) error {
	for _, t := range tables {
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// Context returns the configured cancellation context, or background.
func (c Config) Context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c Config) ratio() float64 {
	if c.Ratio > 0 && c.Ratio <= 1 {
		return c.Ratio
	}
	if c.Quick {
		return 1.0 / 1024
	}
	return 1.0 / 64
}

// chunkElems scales the paper's 2^25-value chunk with the data ratio so
// chunk counts match the paper's.
func (c Config) chunkElems() int {
	chunk := int(float64(int64(1)<<25) * c.ratio())
	if chunk < 1024 {
		chunk = 1024
	}
	return (chunk + 63) &^ 63
}

// Generator produces one experiment's report.
type Generator func(cfg Config, w io.Writer) error

var registry = map[string]Generator{
	"table2":     Table2,
	"fig3":       Fig3Bandwidth,
	"fig5":       Fig5MapReduce,
	"fig6":       Fig6Timelines,
	"fig7":       Fig7Capacity,
	"fig9":       Fig9Primitives,
	"fig10":      Fig10Overhead,
	"fig11":      Fig11Models,
	"heavydb":    Fig11HeavyDB,
	"chunksweep": ChunkSweep,
	"cache":      CacheWarm,
	"fuse":       FuseSpeedup,
	"auto":       AutoPlan,
	"shard":      ShardScale,
}

// Names lists the experiment identifiers in run order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup resolves an experiment by name.
func Lookup(name string) (Generator, error) {
	g, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return g, nil
}

// RunAll executes every experiment in order, stopping between experiments
// (and, through each generator, at query chunk boundaries) when the
// configured context is cancelled.
func RunAll(cfg Config, w io.Writer) error {
	for _, name := range Names() {
		if err := cfg.Context().Err(); err != nil {
			return fmt.Errorf("experiments: interrupted before %s: %w", name, err)
		}
		if err := registry[name](cfg, w); err != nil {
			return fmt.Errorf("experiments: %s: %w", name, err)
		}
	}
	return nil
}

// rig is the standard four-driver runtime of the paper's evaluation on one
// setup.
type rig struct {
	rt     *hub.Runtime
	cuda   device.ID
	oclGPU device.ID
	oclCPU device.ID
	omp    device.ID
	// makers builds fresh instances of the four devices, in ID order: the
	// auto planner rehearses on them.
	makers []func() device.Device
}

func newRig(setup simhw.Setup) (*rig, error) {
	r := &rig{rt: hub.NewRuntime(), makers: []func() device.Device{
		func() device.Device { return simcuda.New(&setup.GPU, nil) },
		func() device.Device { return simopencl.NewGPU(&setup.GPU, nil) },
		func() device.Device { return simopencl.NewCPU(&setup.CPU, nil) },
		func() device.Device { return simomp.New(&setup.CPU, nil) },
	}}
	for i, id := range []*device.ID{&r.cuda, &r.oclGPU, &r.oclCPU, &r.omp} {
		var err error
		if *id, err = r.rt.Register(r.makers[i]()); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// drivers lists the rig's devices with their figure labels.
func (r *rig) drivers() []struct {
	Label string
	ID    device.ID
} {
	return []struct {
		Label string
		ID    device.ID
	}{
		{"CUDA (GPU)", r.cuda},
		{"OpenCL (GPU)", r.oclGPU},
		{"OpenCL (CPU)", r.oclCPU},
		{"OpenMP (CPU)", r.omp},
	}
}

// dataset generates TPC-H data at the nominal SF, scaled by the config.
func (c Config) dataset(sf float64) (*tpch.Dataset, error) {
	return tpch.Generate(tpch.Config{SF: sf, Ratio: c.ratio(), Seed: c.Seed})
}
