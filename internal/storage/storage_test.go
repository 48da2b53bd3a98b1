package storage

import (
	"errors"
	"testing"

	"github.com/adamant-db/adamant/internal/vec"
)

func TestTableBasics(t *testing.T) {
	tb := NewTable("t", 3)
	if err := tb.AddColumn("a", vec.FromInt32([]int32{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddColumn("b", vec.FromInt64([]int64{4, 5, 6})); err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 3 || tb.Bytes() != 12+24 {
		t.Errorf("rows=%d bytes=%d", tb.Rows(), tb.Bytes())
	}
	col, err := tb.Column("a")
	if err != nil || col.I32()[1] != 2 {
		t.Errorf("column a: %v", err)
	}
	if _, err := tb.Column("zzz"); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("unknown column: %v", err)
	}
	if got := tb.ColumnNames(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("names = %v", got)
	}
	if len(tb.Columns()) != 2 {
		t.Error("Columns() wrong")
	}
}

func TestTableRejections(t *testing.T) {
	tb := NewTable("t", 3)
	if err := tb.AddColumn("a", vec.FromInt32([]int32{1})); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("length mismatch: %v", err)
	}
	tb.MustAddColumn("a", vec.FromInt32([]int32{1, 2, 3}))
	if err := tb.AddColumn("a", vec.FromInt32([]int32{4, 5, 6})); err == nil {
		t.Error("duplicate column accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustColumn of missing column must panic")
		}
	}()
	tb.MustColumn("missing")
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	a := NewTable("alpha", 1)
	a.MustAddColumn("x", vec.FromInt32([]int32{1}))
	b := NewTable("beta", 2)
	b.MustAddColumn("y", vec.FromInt32([]int32{1, 2}))
	c.Add(a)
	c.Add(b)

	if got := c.Names(); len(got) != 2 || got[0] != "alpha" {
		t.Errorf("names = %v", got)
	}
	tb, err := c.Table("beta")
	if err != nil || tb.Rows() != 2 {
		t.Errorf("beta: %v", err)
	}
	if _, err := c.Table("gamma"); !errors.Is(err, ErrUnknownTable) {
		t.Errorf("unknown table: %v", err)
	}
	if c.Bytes() != 4+8 {
		t.Errorf("catalog bytes = %d", c.Bytes())
	}
}

func TestMaxDistinct(t *testing.T) {
	tb := NewTable("t", 4)
	tb.MustAddColumn("dense", vec.FromInt32([]int32{7, 5, 6, 5}))
	tb.MustAddColumn("sparse", vec.FromInt32([]int32{-2147483648, 0, 2147483647, 3}))
	tb.MustAddColumn("wide", vec.FromInt64([]int64{1, 1, 1, 1}))
	for col, want := range map[string]int{"dense": 3, "sparse": 4, "wide": 4} {
		if got, err := tb.MaxDistinct(col); err != nil || got != want {
			t.Errorf("MaxDistinct(%s) = %d, %v; want %d", col, got, err, want)
		}
	}
	if _, err := tb.MaxDistinct("zzz"); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("unknown column: %v", err)
	}
	empty := NewTable("e", 0)
	empty.MustAddColumn("a", vec.FromInt32(nil))
	if got, _ := empty.MaxDistinct("a"); got != 0 {
		t.Errorf("empty column bound = %d", got)
	}
}
