package kernels

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vec"
)

// update rewrites testdata/prices.txt instead of diffing against it. Run it
// only for an intended re-price: go test ./internal/kernels -run TestPriceGrid -update
var update = flag.Bool("update", false, "rewrite testdata/prices.txt")

// layouts gives every built-in kernel's buffer arguments, one letter each:
// i = I32 of n rows, l = I64 of n rows, b = Bits of n rows, t = a hash
// table of the grid's slot count, 1 = a one-element I64 count cell.
var layouts = map[string]string{
	"agg_block_i32":              "i1",
	"agg_block_i64":              "l1",
	"agg_count_bits":             "b1",
	"bitmap_and":                 "bbb",
	"bitmap_andnot":              "bbb",
	"bitmap_not":                 "bb",
	"bitmap_or":                  "bbb",
	"fill_i64":                   "l",
	"filter_bitmap_colcmp_i32":   "iib",
	"filter_bitmap_i32":          "ib",
	"filter_bitmap_i64":          "lb",
	"filter_pos_i32":             "ii1",
	"fused_filter_agg":           "il1",
	"fused_filter_mat":           "ill1",
	"hash_agg_count_i32":         "it",
	"hash_agg_i32_i64":           "ilt",
	"hash_build_pk_i32":          "it",
	"hash_build_set_i32":         "it",
	"hash_extract":               "tll1",
	"hash_probe_exists_i32":      "itb",
	"hash_probe_i32":             "itil1",
	"hash_table_init":            "t",
	"map_add_i64":                "lll",
	"map_boundary_i32":           "ii",
	"map_cast_i32_i64":           "il",
	"map_mul_complement_i32_i64": "iil",
	"map_mul_i32_i64":            "iil",
	"map_mul_i64":                "lll",
	"map_scale_i64":              "ll",
	"materialize_bitmap_i32":     "ibi1",
	"materialize_bitmap_i64":     "lbl1",
	"materialize_pos_i32":        "iii",
	"materialize_pos_i64":        "lil",
	"prefix_sum_bits":            "bi",
	"prefix_sum_i32":             "ii",
	"prefix_sum_inclusive_i32":   "ii",
	"sort_agg_i32_i64":           "ilii1",
}

// The price grid crosses every knee of the pricing: empty and one-row
// launches, the 2^12-slot table knee, and group hints at and around the
// one-group floor.
var (
	gridRows   = []int{0, 1, 1024, 1 << 20}
	gridSlots  = []int{1 << 12, 1<<12 + 1}
	gridGroups = []int64{0, 1, 2, 4096}
	gridSDKs   = []struct {
		name string
		sdk  *simhw.SDKProfile
	}{
		{"cuda", &simhw.CUDAProfile},
		{"opencl-gpu", &simhw.OpenCLGPUProfile},
		{"opencl-cpu", &simhw.OpenCLCPUProfile},
		{"openmp", &simhw.OpenMPProfile},
	}
	gridSpecs = []*simhw.Spec{&simhw.RTX2080Ti, &simhw.CoreI78700}
)

// shapeArgs builds a kernel's arguments for n rows and a table of the given
// slot count. fill, when non-nil, overwrites every element.
func shapeArgs(t *testing.T, name string, n, slots int, fill func() uint64) []vec.Vector {
	t.Helper()
	layout, ok := layouts[name]
	if !ok {
		t.Fatalf("no argument layout for kernel %s", name)
	}
	args := make([]vec.Vector, len(layout))
	for i, c := range layout {
		switch c {
		case 'i':
			args[i] = vec.New(vec.Int32, n)
		case 'l':
			args[i] = vec.New(vec.Int64, n)
		case 'b':
			args[i] = vec.New(vec.Bits, n)
		case 't':
			args[i] = vec.New(vec.Int64, 2*slots)
		case '1':
			args[i] = vec.New(vec.Int64, 1)
		}
		if fill == nil {
			continue
		}
		switch a := args[i]; a.Type() {
		case vec.Int32:
			for j := range a.I32() {
				a.I32()[j] = int32(fill())
			}
		case vec.Int64:
			for j := range a.I64() {
				a.I64()[j] = int64(fill())
			}
		case vec.Bits:
			for j := range a.Words() {
				a.Words()[j] = fill()
			}
		}
	}
	return args
}

// gridParams passes the group hint in every scalar slot, so whichever
// parameter a kernel reads as its hint sees it.
func gridParams(k *Kernel, groups int64) []int64 {
	params := make([]int64, max(k.NParams, 2))
	for i := range params {
		params[i] = groups
	}
	return params
}

// TestPriceGrid pins the virtual price of every built-in kernel on every
// shipped SDK, on a GPU and a CPU, across the shape grid. A diff here is a
// re-price: every experiment table and golden trace moves with it.
func TestPriceGrid(t *testing.T) {
	reg := NewRegistry()
	names := reg.Names()
	if len(names) != len(layouts) {
		t.Fatalf("registry has %d kernels, layouts cover %d", len(names), len(layouts))
	}
	var b strings.Builder
	b.WriteString("# kernel sdk spec rows | slots=4096: groups 0 1 2 4096 | slots=4097: groups 0 1 2 4096\n")
	for _, name := range names {
		k, _ := reg.Lookup(name)
		for _, n := range gridRows {
			shapes := make([][]vec.Vector, len(gridSlots))
			for i, slots := range gridSlots {
				shapes[i] = shapeArgs(t, name, n, slots, nil)
			}
			for _, s := range gridSDKs {
				for _, spec := range gridSpecs {
					fmt.Fprintf(&b, "%s %s %s %d", name, s.name, spec.Class, n)
					for _, args := range shapes {
						b.WriteString(" |")
						for _, g := range gridGroups {
							fmt.Fprintf(&b, " %d", s.sdk.Price(spec, k.TrafficOf(args, gridParams(k, g))))
						}
					}
					b.WriteString("\n")
				}
			}
		}
	}
	golden := filepath.Join("testdata", "prices.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		gl, wl := "<EOF>", "<EOF>"
		if i < len(got) {
			gl = got[i]
		}
		if i < len(wantLines) {
			wl = wantLines[i]
		}
		if gl != wl {
			t.Fatalf("%s line %d:\n  got:  %s\n  want: %s", golden, i+1, gl, wl)
		}
	}
}

// TestTrafficReadsShapes checks that every built-in kernel declares its
// traffic from argument shapes and params alone: zero-filled and randomly
// filled arguments of the same shapes declare identical traffic.
func TestTrafficReadsShapes(t *testing.T) {
	reg := NewRegistry()
	rng := rand.New(rand.NewSource(7))
	for _, name := range reg.Names() {
		k, _ := reg.Lookup(name)
		params := gridParams(k, 4096)
		for _, slots := range gridSlots {
			zero := k.TrafficOf(shapeArgs(t, name, 1024, slots, nil), params)
			random := k.TrafficOf(shapeArgs(t, name, 1024, slots, rng.Uint64), params)
			if zero != random {
				t.Errorf("%s (slots %d): traffic depends on values: zero-filled %+v, random %+v", name, slots, zero, random)
			}
		}
	}
}
