package adamant

import (
	"context"

	"github.com/adamant-db/adamant/internal/sql"
	"github.com/adamant-db/adamant/internal/storage"
	"github.com/adamant-db/adamant/internal/vec"
)

// Table is a named collection of equal-length host columns that SQL queries
// run against.
type Table struct {
	inner *storage.Table
}

// NewTable creates a table expecting the given row count.
func NewTable(name string, rows int) *Table {
	return &Table{inner: storage.NewTable(name, rows)}
}

// AddInt32 attaches an int32 column (the dialect's column type).
func (t *Table) AddInt32(name string, values []int32) error {
	return t.inner.AddColumn(name, vec.FromInt32(values))
}

// Name returns the table name.
func (t *Table) Name() string { return t.inner.Name }

// Rows returns the table cardinality.
func (t *Table) Rows() int { return t.inner.Rows() }

// Catalog names the tables a query can reference.
type Catalog struct {
	inner *storage.Catalog
}

// NewCatalog builds a catalog over the given tables.
func NewCatalog(tables ...*Table) *Catalog {
	c := storage.NewCatalog()
	for _, t := range tables {
		c.Add(t.inner)
	}
	return &Catalog{inner: c}
}

// QueryOptions configures one SQL execution. Hash tables are sized from
// the data (each key column's value range, bounded by the table's rows),
// so there is no sizing knob.
type QueryOptions struct {
	ExecOptions
}

// Query parses, plans and executes a SQL query against the catalog on the
// given device.
//
// The dialect is the analytical subset the paper evaluates: single-table
// SELECT with conjunctive WHERE predicates (comparisons, BETWEEN,
// column-vs-column, DATE 'yyyy-mm-dd' literals, parenthesized OR groups),
// IN and NOT IN subquery semi/anti-joins (nestable — the relational form
// of TPC-H Q3/Q4's joins), SUM/MIN/MAX aggregates over columns, a*b, and
// a*(k-b) expressions, COUNT(*), and single-column GROUP BY, with ORDER BY
// <result column> [DESC] and LIMIT applied host-side after retrieval. The
// front-end lowers queries onto the same primitives as the plan-builder
// API.
func (e *Engine) Query(cat *Catalog, dev DeviceID, query string, opts QueryOptions) (*Result, error) {
	return e.QueryContext(context.Background(), cat, dev, query, opts)
}

// QueryContext is Query with cancellation and admission control: the SQL
// query goes through the same session scheduler as plan execution, and the
// context is honoured while queued and at every chunk boundary while
// running.
func (e *Engine) QueryContext(ctx context.Context, cat *Catalog, dev DeviceID, query string, opts QueryOptions) (*Result, error) {
	ast, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	g, err := sql.Plan(ast, sql.PlanConfig{Catalog: cat.inner, Device: dev})
	if err != nil {
		return nil, err
	}
	res, err := e.runGraph(ctx, g, e.execOptions(opts.ExecOptions, e.queryDeadline(opts.ExecOptions)), opts.Priority)
	if err != nil {
		return nil, err
	}
	if err := sql.PostProcess(res, ast); err != nil {
		return nil, err
	}
	return newResult(res), nil
}
