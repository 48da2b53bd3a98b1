package sql_test

import (
	"math"
	"strings"
	"testing"

	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/kernels"
	"github.com/adamant-db/adamant/internal/primitive"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/sql"
	"github.com/adamant-db/adamant/internal/storage"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/vec"
)

type rig struct {
	rt  *hub.Runtime
	cfg sql.PlanConfig
	ds  *tpch.Dataset
}

func newRig(t *testing.T) *rig {
	t.Helper()
	return newRigOn(t, tpch.Config{SF: 0.01, Seed: 11})
}

// newRigOn generates a dataset and plans against its catalog on a
// simulated GPU.
func newRigOn(t *testing.T, cfg tpch.Config) *rig {
	t.Helper()
	ds, err := tpch.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := newCatalogRig(t, ds.Catalog())
	r.ds = ds
	return r
}

// newCatalogRig plans against any catalog on a simulated GPU.
func newCatalogRig(t *testing.T, cat *storage.Catalog) *rig {
	t.Helper()
	rt := hub.NewRuntime()
	dev, err := rt.Register(simcuda.New(&simhw.RTX2080Ti, nil))
	if err != nil {
		t.Fatal(err)
	}
	return &rig{rt: rt, cfg: sql.PlanConfig{Catalog: cat, Device: dev}}
}

func parse(t *testing.T, q string) *sql.Query {
	t.Helper()
	ast, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return ast
}

// runSQL parses, plans and executes a query under two execution models,
// checking they agree, and returns the chunked run's result.
func (r *rig) runSQL(t *testing.T, query string) *exec.Result {
	t.Helper()
	ast := parse(t, query)
	var results []*exec.Result
	for _, model := range []exec.Model{exec.Chunked, exec.FourPhasePipelined} {
		g, err := sql.Plan(ast, r.cfg)
		if err != nil {
			t.Fatalf("plan: %v", err)
		}
		res, err := exec.Run(r.rt, g, exec.Options{Model: model, ChunkElems: 8192})
		if err != nil {
			t.Fatalf("run (%v): %v", model, err)
		}
		results = append(results, res)
	}
	for _, col := range results[0].Columns {
		other, ok := results[1].Column(col.Name)
		if !ok || !vec.Equal(col.Data, other) {
			t.Fatalf("models disagree on column %q", col.Name)
		}
	}
	return results[0]
}

func TestSQLQ6(t *testing.T) {
	r := newRig(t)
	res := r.runSQL(t, tpch.SQLQ6)
	col, _ := res.Column("revenue")
	if got, want := col.I64()[0], tpch.RefQ6(r.ds); got != want {
		t.Errorf("revenue = %d, want %d", got, want)
	}
}

func TestSQLQ4(t *testing.T) {
	r := newRig(t)
	res := r.runSQL(t, tpch.SQLQ4)
	want := tpch.RefQ4(r.ds)
	prio, _ := res.Column("o_orderpriority")
	cnt, _ := res.Column("order_count")
	if prio.Len() != len(want) {
		t.Fatalf("groups = %d, want %d", prio.Len(), len(want))
	}
	for i := 0; i < prio.Len(); i++ {
		if want[prio.I64()[i]] != cnt.I64()[i] {
			t.Errorf("priority %d = %d, want %d", prio.I64()[i], cnt.I64()[i], want[prio.I64()[i]])
		}
	}
}

func TestSQLQ3NestedIn(t *testing.T) {
	r := newRig(t)
	res := r.runSQL(t, tpch.SQLQ3)
	want := tpch.RefQ3(r.ds)
	keys, _ := res.Column("l_orderkey")
	revs, _ := res.Column("revenue")
	if keys.Len() != len(want) {
		t.Fatalf("groups = %d, want %d", keys.Len(), len(want))
	}
	for i := 0; i < keys.Len(); i++ {
		if want[keys.I64()[i]] != revs.I64()[i] {
			t.Fatalf("group %d revenue = %d, want %d", keys.I64()[i], revs.I64()[i], want[keys.I64()[i]])
		}
	}
	// Extraction sorts by key.
	for i := 1; i < keys.Len(); i++ {
		if keys.I64()[i-1] >= keys.I64()[i] {
			t.Fatal("group keys not sorted")
		}
	}
}

func TestSQLMultipleAggregatesAligned(t *testing.T) {
	r := newRig(t)
	res := r.runSQL(t, tpch.SQLQ1)
	want := tpch.RefQ1(r.ds)
	keys, _ := res.Column("l_rfls")
	qty, _ := res.Column("sum_qty")
	rev, _ := res.Column("sum_rev")
	cnt, _ := res.Column("cnt")
	if keys.Len() != len(want) {
		t.Fatalf("groups = %d, want %d", keys.Len(), len(want))
	}
	for i := 0; i < keys.Len(); i++ {
		w := want[keys.I64()[i]]
		if qty.I64()[i] != w.SumQty || rev.I64()[i] != w.SumRev || cnt.I64()[i] != w.Count {
			t.Errorf("group %d = (%d,%d,%d), want (%d,%d,%d)", keys.I64()[i],
				qty.I64()[i], rev.I64()[i], cnt.I64()[i], w.SumQty, w.SumRev, w.Count)
		}
	}
}

func TestSQLProjection(t *testing.T) {
	r := newRig(t)
	res := r.runSQL(t, `SELECT l_quantity FROM lineitem WHERE l_quantity >= 49`)
	col, _ := res.Column("l_quantity")
	qty := r.ds.Lineitem.MustColumn("l_quantity").I32()
	want := 0
	for _, v := range qty {
		if v >= 49 {
			want++
		}
	}
	if col.Len() != want {
		t.Errorf("projected %d rows, want %d", col.Len(), want)
	}
	for i := 0; i < col.Len(); i++ {
		if col.I32()[i] < 49 {
			t.Fatal("projection kept a filtered row")
		}
	}
}

func TestSQLScalarAggsAndCountStar(t *testing.T) {
	r := newRig(t)
	res := r.runSQL(t, `SELECT MIN(l_quantity) AS lo, MAX(l_quantity) AS hi, COUNT(*) AS n FROM lineitem`)
	lo, _ := res.Column("lo")
	hi, _ := res.Column("hi")
	n, _ := res.Column("n")
	if lo.I64()[0] != 1 || hi.I64()[0] != 50 {
		t.Errorf("min/max = %d/%d", lo.I64()[0], hi.I64()[0])
	}
	if n.I64()[0] != int64(r.ds.Lineitem.Rows()) {
		t.Errorf("count = %d, want %d", n.I64()[0], r.ds.Lineitem.Rows())
	}

	res = r.runSQL(t, `SELECT COUNT(*) AS n FROM lineitem WHERE l_discount = 10`)
	nf, _ := res.Column("n")
	disc := r.ds.Lineitem.MustColumn("l_discount").I32()
	var want int64
	for _, d := range disc {
		if d == 10 {
			want++
		}
	}
	if nf.I64()[0] != want {
		t.Errorf("filtered count = %d, want %d", nf.I64()[0], want)
	}
}

func TestSQLPlanErrors(t *testing.T) {
	r := newRig(t)
	bad := map[string]string{
		"unknown table":          `SELECT a FROM nope`,
		"unknown column":         `SELECT zzz FROM lineitem`,
		"bare col with agg":      `SELECT l_quantity, SUM(l_discount) FROM lineitem`,
		"non-group bare col":     `SELECT l_quantity, COUNT(*) FROM lineitem GROUP BY l_rfls`,
		"group without agg":      `SELECT l_rfls FROM lineitem GROUP BY l_rfls`,
		"count expr":             `SELECT COUNT(l_quantity) FROM lineitem GROUP BY l_rfls`,
		"unknown subquery table": `SELECT l_quantity FROM lineitem WHERE l_orderkey IN (SELECT x FROM nope)`,
	}
	for name, q := range bad {
		ast, err := sql.Parse(q)
		if err != nil {
			continue // some are parse-time errors; fine either way
		}
		if _, err := sql.Plan(ast, r.cfg); err == nil {
			t.Errorf("%s: accepted %q", name, q)
		} else if !strings.Contains(err.Error(), "sql:") {
			t.Errorf("%s: error %q lacks prefix", name, err)
		}
	}
	if _, err := sql.Plan(&sql.Query{}, sql.PlanConfig{}); err == nil {
		t.Error("nil catalog accepted")
	}
}

func TestSQLInt64ColumnRejected(t *testing.T) {
	table := storage.NewTable("t", 2)
	table.MustAddColumn("a", vec.FromInt64([]int64{1, 2}))
	cat := storage.NewCatalog()
	cat.Add(table)
	ast := parse(t, `SELECT a FROM t WHERE a < 5`)
	if _, err := sql.Plan(ast, sql.PlanConfig{Catalog: cat}); err == nil {
		t.Error("int64 column accepted by int32 dialect")
	}
}

// TestSQLNotIn checks the anti-join form against a host-side reference.
func TestSQLNotIn(t *testing.T) {
	r := newRig(t)
	res := r.runSQL(t, `
		SELECT COUNT(*) AS n
		FROM orders
		WHERE o_orderkey NOT IN (SELECT l_orderkey FROM lineitem WHERE l_commitdate < l_receiptdate)`)
	// Complement of Q4's late-order set over all orders.
	commit := r.ds.Lineitem.MustColumn("l_commitdate").I32()
	receipt := r.ds.Lineitem.MustColumn("l_receiptdate").I32()
	lkey := r.ds.Lineitem.MustColumn("l_orderkey").I32()
	late := map[int32]bool{}
	for i := range commit {
		if commit[i] < receipt[i] {
			late[lkey[i]] = true
		}
	}
	var want int64
	for _, ok := range r.ds.Orders.MustColumn("o_orderkey").I32() {
		if !late[ok] {
			want++
		}
	}
	col, _ := res.Column("n")
	if col.I64()[0] != want {
		t.Errorf("n = %d, want %d", col.I64()[0], want)
	}
}

// TestSQLOrGroups checks parenthesized OR groups against a host loop.
func TestSQLOrGroups(t *testing.T) {
	r := newRig(t)
	res := r.runSQL(t, `
		SELECT COUNT(*) AS n FROM lineitem
		WHERE (l_quantity < 3 OR l_quantity > 48 OR l_discount = 10)
		  AND l_shipdate > 100`)
	qty := r.ds.Lineitem.MustColumn("l_quantity").I32()
	disc := r.ds.Lineitem.MustColumn("l_discount").I32()
	ship := r.ds.Lineitem.MustColumn("l_shipdate").I32()
	var want int64
	for i := range qty {
		if (qty[i] < 3 || qty[i] > 48 || disc[i] == 10) && ship[i] > 100 {
			want++
		}
	}
	col, _ := res.Column("n")
	if col.I64()[0] != want {
		t.Errorf("n = %d, want %d", col.I64()[0], want)
	}
}

// TestSQLNewSyntaxErrors covers the new constructs' error paths.
func TestSQLNewSyntaxErrors(t *testing.T) {
	bad := []string{
		`SELECT a FROM t WHERE a NOT < 3`,
		`SELECT a FROM t WHERE NOT a IN (SELECT b FROM u)`,
		`SELECT a FROM t WHERE (a < 3)`,
		`SELECT a FROM t WHERE (a < 3 OR b IN (SELECT c FROM u))`,
		`SELECT a FROM t WHERE (a < 3 OR (b < 4 OR c < 5))`,
	}
	r := newRig(t)
	for _, q := range bad {
		ast, err := sql.Parse(q)
		if err != nil {
			continue
		}
		if _, err := sql.Plan(ast, r.cfg); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

// TestSQLOrderByLimit covers host-side ordering and truncation.
func TestSQLOrderByLimit(t *testing.T) {
	r := newRig(t)
	ast := parse(t, `
		SELECT l_orderkey, SUM(l_extendedprice * (100 - l_discount)) AS revenue
		FROM lineitem
		WHERE l_shipdate > DATE '1995-03-15'
		GROUP BY l_orderkey
		ORDER BY revenue DESC
		LIMIT 10`)
	g, err := sql.Plan(ast, r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(r.rt, g, exec.Options{Model: exec.Chunked, ChunkElems: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if err := sql.PostProcess(res, ast); err != nil {
		t.Fatal(err)
	}
	keys, _ := res.Column("l_orderkey")
	revs, _ := res.Column("revenue")
	if revs.Len() != 10 || keys.Len() != 10 {
		t.Fatalf("rows = %d, want 10", revs.Len())
	}
	for i := 1; i < revs.Len(); i++ {
		if revs.I64()[i-1] < revs.I64()[i] {
			t.Fatal("revenues not descending")
		}
	}
	// The top row matches a host-side scan for the maximum.
	ship := r.ds.Lineitem.MustColumn("l_shipdate").I32()
	lkey := r.ds.Lineitem.MustColumn("l_orderkey").I32()
	price := r.ds.Lineitem.MustColumn("l_extendedprice").I32()
	disc := r.ds.Lineitem.MustColumn("l_discount").I32()
	rev := map[int64]int64{}
	for i := range ship {
		if ship[i] > 1169 { // 1995-03-15
			rev[int64(lkey[i])] += int64(price[i]) * (100 - int64(disc[i]))
		}
	}
	var best int64
	for _, v := range rev {
		if v > best {
			best = v
		}
	}
	if revs.I64()[0] != best {
		t.Errorf("top revenue = %d, want %d", revs.I64()[0], best)
	}
	// Keys stay aligned with their revenues.
	if rev[keys.I64()[0]] != revs.I64()[0] {
		t.Error("ORDER BY broke column alignment")
	}
}

// TestPostProcessErrors covers the ordering error paths.
func TestPostProcessErrors(t *testing.T) {
	r := newRig(t)
	ast := parse(t, `SELECT COUNT(*) AS n FROM lineitem ORDER BY missing`)
	g, err := sql.Plan(ast, r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(r.rt, g, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sql.PostProcess(res, ast); err == nil {
		t.Error("ordering by a missing column accepted")
	}
	// ORDER BY ASC (explicit) and plain LIMIT paths.
	ast2 := parse(t, `SELECT COUNT(*) AS n FROM lineitem ORDER BY n ASC LIMIT 5`)
	g2, _ := sql.Plan(ast2, r.cfg)
	res2, err := exec.Run(r.rt, g2, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sql.PostProcess(res2, ast2); err != nil {
		t.Errorf("asc+limit: %v", err)
	}
}

// TestSQLOrderProjectionInt32 orders a projection by its own int32 column.
func TestSQLOrderProjectionInt32(t *testing.T) {
	r := newRig(t)
	ast := parse(t, `SELECT l_quantity FROM lineitem WHERE l_quantity >= 48 ORDER BY l_quantity LIMIT 7`)
	g, err := sql.Plan(ast, r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(r.rt, g, exec.Options{Model: exec.Chunked, ChunkElems: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if err := sql.PostProcess(res, ast); err != nil {
		t.Fatal(err)
	}
	col, _ := res.Column("l_quantity")
	if col.Len() != 7 {
		t.Fatalf("rows = %d", col.Len())
	}
	for i := 0; i < col.Len(); i++ {
		if col.I32()[i] != 48 {
			t.Errorf("row %d = %d, want 48 (the minimum qualifying value)", i, col.I32()[i])
		}
	}
}

// TestSQLGroupByHighCardinality groups by a key with one group per row.
// Hash tables are sized by the key column's value range, so a table whose
// every row is its own group still fits.
func TestSQLGroupByHighCardinality(t *testing.T) {
	r := newRigOn(t, tpch.Config{SF: 1, Ratio: 1.0 / 64, Seed: 42})
	cust := r.ds.Customer.MustColumn("c_custkey").I32()
	res := r.runSQL(t, `SELECT c_custkey, COUNT(*) AS n FROM customer GROUP BY c_custkey`)
	keys, _ := res.Column("c_custkey")
	n, _ := res.Column("n")
	if keys.Len() != len(cust) {
		t.Fatalf("customer groups = %d, want %d", keys.Len(), len(cust))
	}
	for i, c := range n.I64() {
		if c != 1 {
			t.Fatalf("customer %d counted %d times", keys.I64()[i], c)
		}
	}

	okey := r.ds.Orders.MustColumn("o_orderkey").I32()
	ocust := r.ds.Orders.MustColumn("o_custkey").I32()
	want := make(map[int64]int64, len(okey))
	for i, k := range okey {
		want[int64(k)] += int64(ocust[i])
	}
	res = r.runSQL(t, `SELECT o_orderkey, SUM(o_custkey) AS s FROM orders GROUP BY o_orderkey`)
	keys, _ = res.Column("o_orderkey")
	sums, _ := res.Column("s")
	if keys.Len() != len(want) {
		t.Fatalf("order groups = %d, want %d", keys.Len(), len(want))
	}
	for i, k := range keys.I64() {
		if sums.I64()[i] != want[k] {
			t.Fatalf("order %d sum = %d, want %d", k, sums.I64()[i], want[k])
		}
	}
}

// filterNodes counts a graph's FILTER_BITMAP nodes and, among them, the
// inclusive range filters.
func filterNodes(g *graph.Graph) (filters, ranges int) {
	for _, n := range g.Nodes() {
		if n.Task == nil || n.Task.Kind != primitive.FilterBitmap {
			continue
		}
		filters++
		if strings.HasPrefix(n.Task.Kernel, "filter_bitmap_") && n.Task.Params[0] == int64(kernels.CmpBetween) {
			ranges++
		}
	}
	return filters, ranges
}

// TestSQLRangeMerge checks that a lower and an upper bound on one column
// merge into one inclusive range filter, and that everything else is
// left alone, each against a host-side count.
func TestSQLRangeMerge(t *testing.T) {
	const rows = 1000
	a, b := make([]int32, rows), make([]int32, rows)
	for i := range a {
		a[i] = int32(i%50 - 25)
		b[i] = int32(i % 37)
	}
	tbl := storage.NewTable("t", rows)
	tbl.MustAddColumn("a", vec.FromInt32(a))
	tbl.MustAddColumn("b", vec.FromInt32(b))
	cat := storage.NewCatalog()
	cat.Add(tbl)
	r := newCatalogRig(t, cat)

	const minI, maxI = math.MinInt64, math.MaxInt64
	cases := []struct {
		name, where     string
		filters, ranges int
		keep            func(a, b int64) bool
	}{
		{"gt-le", "a > 3 AND a <= 20", 1, 1, func(a, _ int64) bool { return a > 3 && a <= 20 }},
		{"ge-lt", "a >= -7 AND a < 12", 1, 1, func(a, _ int64) bool { return a >= -7 && a < 12 }},
		{"upper first", "a < 12 AND b > 4 AND a >= -7", 3, 1, func(a, b int64) bool { return a < 12 && b > 4 && a >= -7 }},
		{"empty", "a >= 10 AND a < 10", 1, 1, func(a, _ int64) bool { return false }},
		{"gt max", "a > 9223372036854775807 AND a < 5", 3, 0, func(a, _ int64) bool { return false }},
		{"lt min", "a >= -3 AND a < -9223372036854775808", 3, 0, func(a, _ int64) bool { return false }},
		{"inclusive extremes", "a >= -9223372036854775808 AND a <= 9223372036854775807", 1, 1, func(a, _ int64) bool { return a >= minI && a <= maxI }},
		{"two columns", "a >= 3 AND b < 20", 3, 0, func(a, b int64) bool { return a >= 3 && b < 20 }},
		{"inside or", "(a > 5 OR a < 2) AND b < 30", 5, 0, func(a, b int64) bool { return (a > 5 || a < 2) && b < 30 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			query := "SELECT COUNT(*) AS n FROM t WHERE " + c.where
			g, err := sql.Plan(parse(t, query), r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if filters, ranges := filterNodes(g); filters != c.filters || ranges != c.ranges {
				t.Errorf("%d filters (%d ranges), want %d (%d)", filters, ranges, c.filters, c.ranges)
			}
			var want int64
			for i := range a {
				if c.keep(int64(a[i]), int64(b[i])) {
					want++
				}
			}
			n, _ := r.runSQL(t, query).Column("n")
			if got := n.I64()[0]; got != want {
				t.Errorf("count = %d, want %d", got, want)
			}
		})
	}
}

// TestSQLQ4Shape pins what range merging and data-sized hashes make of
// Q4: the o_orderdate pair is one range filter (4 FILTER_BITMAP nodes, not
// 6) and the priority table is sized for its 5 values.
func TestSQLQ4Shape(t *testing.T) {
	r := newRig(t)
	g, err := sql.Plan(parse(t, tpch.SQLQ4), r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if filters, ranges := filterNodes(g); filters != 4 || ranges != 1 {
		t.Errorf("%d FILTER_BITMAP nodes (%d ranges), want 4 (1)", filters, ranges)
	}
	for _, n := range g.Nodes() {
		if n.Task != nil && n.Task.Kind == primitive.HashAgg {
			if hint := n.Task.Params[len(n.Task.Params)-1]; hint != tpch.NumPriorities {
				t.Errorf("HASH_AGG hint = %d, want %d", hint, tpch.NumPriorities)
			}
		}
	}
}
