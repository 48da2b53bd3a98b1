package tpch

import (
	"fmt"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/sql"
)

// The evaluated queries in the SQL front end's dialect. They are the one
// copy every TPC-H plan comes from: the experiments, the golden traces,
// adamant-run -q and the tests all plan them through sql.Plan, the path a
// facade user's query takes. Joins are nested IN semi-joins, so each query
// stays single-table per block, and Q3 groups by l_orderkey alone (the key
// determines o_orderdate and o_shippriority, which the host can join back).
const (
	// SQLQ1 is the pricing-summary query: one wide lineitem scan grouped
	// over the tiny return-flag/line-status domain.
	SQLQ1 = `SELECT l_rfls, SUM(l_quantity) AS sum_qty,
	                SUM(l_extendedprice * (100 - l_discount)) AS sum_rev, COUNT(*) AS cnt
	         FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_rfls`
	// SQLQ3 is the shipping-priority query, the paper's "multiple joins"
	// representative.
	SQLQ3 = `SELECT l_orderkey, SUM(l_extendedprice * (100 - l_discount)) AS revenue
	         FROM lineitem
	         WHERE l_shipdate > DATE '1995-03-15'
	           AND l_orderkey IN (
	             SELECT o_orderkey FROM orders
	             WHERE o_orderdate < DATE '1995-03-15'
	               AND o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment = 1))
	         GROUP BY l_orderkey`
	// SQLQ4 is the order-priority-checking query, the paper's "subquery"
	// representative: an EXISTS semi-join from orders into lineitem.
	SQLQ4 = `SELECT o_orderpriority, COUNT(*) AS order_count
	         FROM orders
	         WHERE o_orderdate >= DATE '1993-07-01' AND o_orderdate < DATE '1993-10-01'
	           AND o_orderkey IN (SELECT l_orderkey FROM lineitem WHERE l_commitdate < l_receiptdate)
	         GROUP BY o_orderpriority`
	// SQLQ6 is the forecasting-revenue-change query, the paper's "heavy
	// aggregation" representative: three conjunctive filters and one SUM.
	SQLQ6 = `SELECT SUM(l_extendedprice * l_discount) AS revenue
	         FROM lineitem
	         WHERE l_shipdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'
	           AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24`
)

// queries names the evaluated queries' texts.
var queries = map[string]string{"Q1": SQLQ1, "Q3": SQLQ3, "Q4": SQLQ4, "Q6": SQLQ6}

// BuildQuery plans an evaluated query over the dataset, every node
// annotated with dev: the role of the optimizer front end the paper
// assumes ("a query plan generated from any existing optimizer, translated
// into a primitive graph with annotations").
func BuildQuery(q string, d *Dataset, dev device.ID) (*graph.Graph, error) {
	text, ok := queries[q]
	if !ok {
		return nil, fmt.Errorf("tpch: unknown query %q", q)
	}
	ast, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	return sql.Plan(ast, sql.PlanConfig{Catalog: d.Catalog(), Device: dev})
}
