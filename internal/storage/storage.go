// Package storage provides the host-side columnar tables ADAMANT queries
// run against: typed columns, tables, and a catalog. Query plans bind scan
// nodes to these columns; the execution models stream them to the devices
// chunk by chunk.
package storage

import (
	"errors"
	"fmt"
	"sort"

	"github.com/adamant-db/adamant/internal/vec"
)

// Storage errors.
var (
	ErrUnknownColumn  = errors.New("storage: unknown column")
	ErrUnknownTable   = errors.New("storage: unknown table")
	ErrLengthMismatch = errors.New("storage: column length mismatch")
)

// Column is a named, typed host column.
type Column struct {
	Name string
	Data vec.Vector
	// distinct bounds the column's distinct values (see MaxDistinct).
	distinct int
}

// Table is a fixed-cardinality collection of equal-length columns.
type Table struct {
	Name string
	rows int
	cols []Column
	idx  map[string]int
}

// NewTable creates an empty table expecting the given row count.
func NewTable(name string, rows int) *Table {
	return &Table{Name: name, rows: rows, idx: make(map[string]int)}
}

// Rows reports the table cardinality.
func (t *Table) Rows() int { return t.rows }

// AddColumn attaches a column; its length must match the table cardinality.
func (t *Table) AddColumn(name string, data vec.Vector) error {
	if data.Len() != t.rows {
		return fmt.Errorf("%w: %s.%s has %d rows, table has %d", ErrLengthMismatch, t.Name, name, data.Len(), t.rows)
	}
	if _, dup := t.idx[name]; dup {
		return fmt.Errorf("storage: duplicate column %s.%s", t.Name, name)
	}
	t.idx[name] = len(t.cols)
	t.cols = append(t.cols, Column{Name: name, Data: data, distinct: maxDistinct(data)})
	return nil
}

// maxDistinct is min(rows, max−min+1) for an int32 column and the row count
// for any other type. It scans the column once, when the table stores it.
func maxDistinct(data vec.Vector) int {
	n := data.Len()
	if data.Type() != vec.Int32 || n == 0 {
		return n
	}
	s := data.I32()
	lo, hi := s[0], s[0]
	for _, v := range s[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return int(min(int64(n), int64(hi)-int64(lo)+1))
}

// MustAddColumn is AddColumn for construction-time columns that cannot
// mismatch; it panics on error.
func (t *Table) MustAddColumn(name string, data vec.Vector) {
	if err := t.AddColumn(name, data); err != nil {
		panic(err)
	}
}

// Column resolves a column by name.
func (t *Table) Column(name string) (vec.Vector, error) {
	i, ok := t.idx[name]
	if !ok {
		return vec.Vector{}, fmt.Errorf("%w: %s.%s", ErrUnknownColumn, t.Name, name)
	}
	return t.cols[i].Data, nil
}

// MaxDistinct bounds the number of distinct values in a column: min(rows,
// max−min+1) for an int32 column, the row count otherwise. It is computed
// once, when the column is added; columns are not mutated afterwards. Hash
// tables keyed on the column are sized from it.
func (t *Table) MaxDistinct(name string) (int, error) {
	i, ok := t.idx[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s.%s", ErrUnknownColumn, t.Name, name)
	}
	return t.cols[i].distinct, nil
}

// MustColumn resolves a column that is known to exist; it panics otherwise.
func (t *Table) MustColumn(name string) vec.Vector {
	v, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return v
}

// Columns lists the columns in attachment order.
func (t *Table) Columns() []Column { return t.cols }

// ColumnNames lists the column names in attachment order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.Name
	}
	return out
}

// Bytes reports the table's total column storage.
func (t *Table) Bytes() int64 {
	var total int64
	for _, c := range t.cols {
		total += c.Data.Bytes()
	}
	return total
}

// Catalog is a named collection of tables.
type Catalog struct {
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: make(map[string]*Table)} }

// Add registers a table.
func (c *Catalog) Add(t *Table) { c.tables[t.Name] = t }

// Table resolves a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTable, name)
	}
	return t, nil
}

// Names lists the table names, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.tables))
	for name := range c.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Bytes reports the catalog's total storage.
func (c *Catalog) Bytes() int64 {
	var total int64
	for _, t := range c.tables {
		total += t.Bytes()
	}
	return total
}
