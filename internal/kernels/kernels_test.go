package kernels

import (
	"errors"
	"testing"

	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vec"
)

// testCtx runs kernels with a few workers so parallel paths execute.
var testCtx = &Ctx{Workers: 4}

func mustLookup(t *testing.T, name string) *Kernel {
	t.Helper()
	k, err := NewRegistry().Lookup(name)
	if err != nil {
		t.Fatalf("lookup %s: %v", name, err)
	}
	return k
}

// launch validates and runs a kernel the way a device would.
func launch(t *testing.T, name string, args []vec.Vector, params ...int64) {
	t.Helper()
	k := mustLookup(t, name)
	if err := k.Validate(args, params); err != nil {
		t.Fatalf("%s: validate: %v", name, err)
	}
	if err := k.Fn(testCtx, args, params); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// Kernel body prices may round to zero for tiny inputs (the device adds
	// launch overhead separately) but must never be negative.
	if cost := simhw.CUDAProfile.Price(&simhw.RTX2080Ti, k.TrafficOf(args, params)); cost < 0 {
		t.Fatalf("%s: negative price %v", name, cost)
	}
}

func TestRegistryBuiltins(t *testing.T) {
	r := NewRegistry()
	names := r.Names()
	want := []string{
		"agg_block_i32", "agg_block_i64", "agg_count_bits", "bitmap_and",
		"bitmap_andnot", "bitmap_not", "bitmap_or", "fill_i64", "filter_bitmap_colcmp_i32",
		"filter_bitmap_i32", "filter_bitmap_i64", "filter_pos_i32",
		"fused_filter_agg", "fused_filter_mat", "hash_agg_count_i32",
		"hash_agg_i32_i64", "hash_build_pk_i32", "hash_build_set_i32",
		"hash_extract", "hash_probe_exists_i32", "hash_probe_i32",
		"hash_table_init", "map_add_i64", "map_boundary_i32", "map_cast_i32_i64", "map_mul_complement_i32_i64",
		"map_mul_i32_i64", "map_mul_i64", "map_scale_i64",
		"materialize_bitmap_i32", "materialize_bitmap_i64",
		"materialize_pos_i32", "materialize_pos_i64", "prefix_sum_bits",
		"prefix_sum_i32", "prefix_sum_inclusive_i32", "sort_agg_i32_i64",
	}
	if len(names) != len(want) {
		t.Fatalf("registry has %d kernels, want %d: %v", len(names), len(want), names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("kernel %d = %s, want %s", i, names[i], n)
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := NewRegistry().Lookup("nope"); !errors.Is(err, ErrUnknownKernel) {
		t.Errorf("unknown kernel: %v", err)
	}
}

func TestRegistryCustom(t *testing.T) {
	r := NewRegistry()
	r.Register(&Kernel{Name: "custom", NArgs: 0})
	if _, err := r.Lookup("custom"); err != nil {
		t.Errorf("custom kernel not found: %v", err)
	}
	var zero Registry
	zero.Register(&Kernel{Name: "x"})
	if _, err := zero.Lookup("x"); err != nil {
		t.Errorf("zero registry register: %v", err)
	}
}

func TestValidateShapes(t *testing.T) {
	k := mustLookup(t, "map_mul_i32_i64")
	if err := k.Validate(make([]vec.Vector, 2), nil); !errors.Is(err, ErrBadArgs) {
		t.Errorf("wrong arg count: %v", err)
	}
	k = mustLookup(t, "filter_bitmap_i32")
	if err := k.Validate(make([]vec.Vector, 2), []int64{1}); !errors.Is(err, ErrBadArgs) {
		t.Errorf("missing params: %v", err)
	}
}

func TestParallelRangeCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		hits := make([]int32, n)
		parallelRange(&Ctx{Workers: 7}, n, 64, func(s, e int) {
			for i := s; i < e; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: element %d visited %d times", n, i, h)
			}
		}
	}
}

func TestCtxWorkerDefaults(t *testing.T) {
	var nilCtx *Ctx
	if nilCtx.workers() < 1 {
		t.Error("nil ctx workers")
	}
	if (&Ctx{}).workers() < 1 {
		t.Error("zero ctx workers")
	}
	if (&Ctx{Workers: 3}).workers() != 3 {
		t.Error("explicit workers ignored")
	}
}
