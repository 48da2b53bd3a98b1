package kernels

import (
	"testing"

	"github.com/adamant-db/adamant/internal/vec"
)

// Host-kernel benchmark of the fused single-pass Q6 chain against the
// unfused primitive sequence it replaces. Both paths run the same Q6-shaped
// predicate set (shipdate window ∧ discount band ∧ quantity cap) and the
// revenue map over identically distributed columns, on the same Ctx, so
// the difference is exactly what fusion buys on the host: one streaming
// read of the base columns instead of three filter passes, two bitmap
// combines, two gathers, a map and a reduction bounced through
// intermediate buffers.

const benchQ6Rows = 1 << 20

// Q6-shaped predicate constants over the synthetic columns below. Combined
// selectivity ~2%, like TPC-H Q6.
const (
	benchShipLo = 1000
	benchShipHi = 1364 // inclusive, ~1 year of a ~7-year span
	benchDiscLo = 5
	benchDiscHi = 7
	benchQtyCut = 24
)

// benchQ6Columns fills the four base columns with a deterministic LCG,
// matching the TPC-H Q6 domains: a multi-year shipdate span, discounts
// 0..10, quantities 1..50, prices in the thousands.
func benchQ6Columns() (ship, disc, qty, price vec.Vector) {
	s := make([]int32, benchQ6Rows)
	d := make([]int32, benchQ6Rows)
	q := make([]int32, benchQ6Rows)
	p := make([]int32, benchQ6Rows)
	x := uint64(42)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	for i := range s {
		s[i] = int32(next() % 2557) // ~7 years of days
		d[i] = int32(next() % 11)
		q[i] = int32(1 + next()%50)
		p[i] = int32(1000 + next()%99000)
	}
	return vec.FromInt32(s), vec.FromInt32(d), vec.FromInt32(q), vec.FromInt32(p)
}

// benchQ6Scratch holds the intermediate buffers of the unfused path,
// allocated once so the benchmark times kernel work, not make().
type benchQ6Scratch struct {
	bmShip, bmDisc, bmQty, bmA, bmB vec.Vector
	matPrice, matDisc               []int32
	revenue                         []int64
	count                           vec.Vector
}

func newBenchQ6Scratch() *benchQ6Scratch {
	return &benchQ6Scratch{
		bmShip:   vec.New(vec.Bits, benchQ6Rows),
		bmDisc:   vec.New(vec.Bits, benchQ6Rows),
		bmQty:    vec.New(vec.Bits, benchQ6Rows),
		bmA:      vec.New(vec.Bits, benchQ6Rows),
		bmB:      vec.New(vec.Bits, benchQ6Rows),
		matPrice: make([]int32, benchQ6Rows),
		matDisc:  make([]int32, benchQ6Rows),
		revenue:  make([]int64, benchQ6Rows),
		count:    vec.New(vec.Int64, 1),
	}
}

func benchLookup(tb testing.TB, name string) *Kernel {
	tb.Helper()
	k, err := NewRegistry().Lookup(name)
	if err != nil {
		tb.Fatalf("lookup %s: %v", name, err)
	}
	return k
}

// runUnfusedQ6 executes the nine-launch unfused primitive sequence and
// returns sum(price*discount) over the survivors.
func runUnfusedQ6(tb testing.TB, ctx *Ctx, ship, disc, qty, price vec.Vector, sc *benchQ6Scratch) int64 {
	tb.Helper()
	filter := benchLookup(tb, "filter_bitmap_i32")
	and := benchLookup(tb, "bitmap_and")
	mat := benchLookup(tb, "materialize_bitmap_i32")
	mul := benchLookup(tb, "map_mul_i32_i64")
	agg := benchLookup(tb, "agg_block_i64")

	step := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	step(filter.Fn(ctx, []vec.Vector{ship, sc.bmShip}, []int64{int64(CmpBetween), benchShipLo, benchShipHi}))
	step(filter.Fn(ctx, []vec.Vector{disc, sc.bmDisc}, []int64{int64(CmpBetween), benchDiscLo, benchDiscHi}))
	step(filter.Fn(ctx, []vec.Vector{qty, sc.bmQty}, []int64{int64(CmpLt), benchQtyCut, 0}))
	step(and.Fn(ctx, []vec.Vector{sc.bmShip, sc.bmDisc, sc.bmA}, nil))
	step(and.Fn(ctx, []vec.Vector{sc.bmA, sc.bmQty, sc.bmB}, nil))
	step(mat.Fn(ctx, []vec.Vector{price, sc.bmB, vec.FromInt32(sc.matPrice), sc.count}, nil))
	n := int(sc.count.I64()[0])
	step(mat.Fn(ctx, []vec.Vector{disc, sc.bmB, vec.FromInt32(sc.matDisc), sc.count}, nil))
	rev := vec.FromInt64(sc.revenue[:n])
	step(mul.Fn(ctx, []vec.Vector{vec.FromInt32(sc.matPrice[:n]), vec.FromInt32(sc.matDisc[:n]), rev}, nil))
	acc := vec.New(vec.Int64, 1)
	step(agg.Fn(ctx, []vec.Vector{rev, acc}, []int64{int64(AggSum)}))
	return acc.I64()[0]
}

// benchFusedQ6Params encodes the same chain as a fused micro-program over
// columns [ship, disc, qty, price]: three AND-combined predicates, the
// price*discount map, a SUM reduction.
func benchFusedQ6Params() []int64 {
	return []int64{
		3,
		0, int64(CmpBetween), benchShipLo, benchShipHi,
		1, int64(CmpBetween), benchDiscLo, benchDiscHi,
		2, int64(CmpLt), benchQtyCut, 0,
		FusedMapMul, 3, 1, 0,
		int64(AggSum),
	}
}

func runFusedQ6(tb testing.TB, ctx *Ctx, ship, disc, qty, price vec.Vector) int64 {
	tb.Helper()
	fused := benchLookup(tb, "fused_filter_agg")
	acc := vec.New(vec.Int64, 1)
	if err := fused.Fn(ctx, []vec.Vector{ship, disc, qty, price, acc}, benchFusedQ6Params()); err != nil {
		tb.Fatal(err)
	}
	return acc.I64()[0]
}

func BenchmarkUnfusedQ6(b *testing.B) {
	ship, disc, qty, price := benchQ6Columns()
	sc := newBenchQ6Scratch()
	ctx := &Ctx{Workers: 4}
	b.SetBytes(4 * 4 * benchQ6Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runUnfusedQ6(b, ctx, ship, disc, qty, price, sc)
	}
}

func BenchmarkFusedQ6(b *testing.B) {
	ship, disc, qty, price := benchQ6Columns()
	ctx := &Ctx{Workers: 4}
	b.SetBytes(4 * 4 * benchQ6Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runFusedQ6(b, ctx, ship, disc, qty, price)
	}
}

// TestFusedQ6EqualsUnfused asserts the fused kernel answers identically to
// the unfused sequence on the benchmark columns. How much faster it is lives
// in the perf harness (kernels.fused_ms against kernels.filter_ms), not in a
// tier-1 wall-clock assertion.
func TestFusedQ6EqualsUnfused(t *testing.T) {
	ship, disc, qty, price := benchQ6Columns()
	sc := newBenchQ6Scratch()
	ctx := &Ctx{Workers: 4}

	want := runUnfusedQ6(t, ctx, ship, disc, qty, price, sc)
	if got := runFusedQ6(t, ctx, ship, disc, qty, price); got != want {
		t.Fatalf("fused revenue = %d, unfused = %d", got, want)
	}
	if want == 0 {
		t.Fatal("Q6 predicates selected no rows; benchmark data is degenerate")
	}
}
