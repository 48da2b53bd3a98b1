// Package kernels implements the database primitive kernels that ADAMANT's
// task layer plugs into the device drivers.
//
// Every kernel follows an SDK-style calling convention: a flat list of
// buffer arguments (vec.Vector views resolved by the device from its memory
// pool) plus a flat list of scalar parameters, mirroring how clSetKernelArg
// or a CUDA launch passes arguments. Kernels compute real results on the
// host (data-parallel across goroutines, standing in for the SIMT/SIMD
// execution of the modelled device). They do not price themselves: each
// declares the memory traffic a launch generates from its argument shapes
// (simhw.Traffic), and the device prices that traffic under its SDK with
// simhw.SDKProfile.Price.
//
// The kernel set covers Table I of the paper: MAP, AGG_BLOCK, HASH_AGG,
// HASH_BUILD, HASH_PROBE, SORT_AGG, FILTER_BITMAP, FILTER_POSITION,
// PREFIX_SUM, MATERIALIZE and MATERIALIZE_POSITION, in the type variants
// the TPC-H workloads need.
package kernels

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vec"
)

// Kernel errors.
var (
	ErrUnknownKernel = errors.New("kernels: unknown kernel")
	ErrBadArgs       = errors.New("kernels: bad kernel arguments")
)

// Ctx carries per-launch execution settings.
type Ctx struct {
	// Workers is the number of goroutines a data-parallel kernel may use.
	// Zero means GOMAXPROCS.
	Workers int
}

func (c *Ctx) workers() int {
	if c == nil || c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// Func is a kernel body. args are the buffer arguments in kernel-specific
// order; params are scalar parameters. Kernels that produce a variable-sized
// result write its cardinality into a designated 1-element Int64 argument,
// the way GPU kernels return counts through device memory.
type Func func(ctx *Ctx, args []vec.Vector, params []int64) error

// Kernel bundles a primitive implementation with the traffic it declares
// and the metadata the task layer needs to validate launches.
type Kernel struct {
	Name string
	// NArgs is the expected buffer argument count. Negative means the
	// kernel takes a variable number of arguments and validates the shape
	// itself (the fused kernels, whose column count depends on the chain
	// they replaced).
	NArgs int
	// NParams is the minimum scalar parameter count.
	NParams int
	// Source is a pseudo-source string registered through prepare_kernel
	// on SDKs with runtime compilation.
	Source string
	Fn     Func
	// Traffic declares the memory work of one launch from the arguments'
	// lengths and byte sizes and the scalar params, never from buffer
	// contents. Nil means one streaming pass over every argument.
	Traffic func(args []vec.Vector, params []int64) simhw.Traffic
}

// TrafficOf returns the traffic one launch of k declares.
func (k *Kernel) TrafficOf(args []vec.Vector, params []int64) simhw.Traffic {
	if k.Traffic == nil {
		return simhw.Traffic{Seq: argBytes(args)}
	}
	return k.Traffic(args, params)
}

// argBytes sums the byte sizes of args.
func argBytes(args []vec.Vector) int64 {
	var bytes int64
	for _, a := range args {
		bytes += a.Bytes()
	}
	return bytes
}

// Validate checks a launch's argument shape.
func (k *Kernel) Validate(args []vec.Vector, params []int64) error {
	if k.NArgs >= 0 && len(args) != k.NArgs {
		return fmt.Errorf("%w: %s expects %d buffer args, got %d", ErrBadArgs, k.Name, k.NArgs, len(args))
	}
	if len(params) < k.NParams {
		return fmt.Errorf("%w: %s expects >=%d params, got %d", ErrBadArgs, k.Name, k.NParams, len(params))
	}
	return nil
}

// Registry maps kernel names to implementations. The zero Registry is empty;
// use NewRegistry for one preloaded with the built-in kernel set.
type Registry struct {
	mu      sync.RWMutex
	kernels map[string]*Kernel
}

// NewRegistry returns a registry containing every built-in kernel.
func NewRegistry() *Registry {
	r := &Registry{kernels: make(map[string]*Kernel)}
	for _, k := range builtins {
		r.kernels[k.Name] = k
	}
	return r
}

// Register adds (or replaces) a kernel, enabling downstream users to plug in
// custom primitive implementations as §III-B of the paper describes.
func (r *Registry) Register(k *Kernel) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.kernels == nil {
		r.kernels = make(map[string]*Kernel)
	}
	r.kernels[k.Name] = k
}

// Lookup resolves a kernel by name.
func (r *Registry) Lookup(name string) (*Kernel, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	k, ok := r.kernels[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKernel, name)
	}
	return k, nil
}

// Names returns the sorted kernel names, for diagnostics.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.kernels))
	for name := range r.kernels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

var builtins []*Kernel

func register(k *Kernel) *Kernel {
	builtins = append(builtins, k)
	return k
}

// parallelRange splits [0,n) into contiguous spans, one per worker, and runs
// body(start, end) concurrently. Spans are aligned to align elements so that
// bitmap-producing kernels never share a word between workers. A panic in
// any worker is re-raised in the caller so the device boundary can convert
// it into a launch error.
func parallelRange(ctx *Ctx, n, align int, body func(start, end int)) {
	w := ctx.workers()
	if align < 1 {
		align = 1
	}
	chunk := (n + w - 1) / w
	if chunk < align {
		chunk = align
	}
	chunk = (chunk + align - 1) / align * align
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
				}
			}()
			body(s, e)
		}(start, end)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
