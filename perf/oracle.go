package main

import (
	"github.com/adamant-db/adamant"
	"github.com/adamant-db/adamant/internal/tpch"
)

// checksum reduces a query answer to its group count and a wrapping
// Σ (key+1)·value·(column+1), so checking one op costs microseconds. The
// +1s keep a zero key and the column position from vanishing.
type checksum struct {
	groups int
	sum    uint64
}

func (c *checksum) add(key int64, col int, value int64) {
	c.sum += uint64(key+1) * uint64(value) * uint64(col+1)
}

// oracle computes a query's expected checksum from the host-side reference
// implementations, which share no code with the kernels.
func oracle(name string, ds *tpch.Dataset) checksum {
	var c checksum
	switch name {
	case "Q1":
		ref := tpch.RefQ1(ds)
		c.groups = len(ref)
		for k, g := range ref {
			c.add(k, 0, g.SumQty)
			c.add(k, 1, g.SumRev)
			c.add(k, 2, g.Count)
		}
	case "Q3":
		ref := tpch.RefQ3(ds)
		c.groups = len(ref)
		for k, v := range ref {
			c.add(k, 0, v)
		}
	case "Q4":
		ref := tpch.RefQ4(ds)
		c.groups = len(ref)
		for k, v := range ref {
			c.add(k, 0, v)
		}
	case "Q6":
		c.groups = 1
		c.add(0, 0, tpch.RefQ6(ds))
	default:
		panic("perf: no oracle for " + name)
	}
	return c
}

// resultChecksum folds an engine result the same way.
func resultChecksum(q query, res *adamant.Result) checksum {
	c := checksum{groups: res.Len(q.values[0])}
	var keys []int64
	if q.key != "" {
		keys = res.Int64(q.key)
	}
	for col, name := range q.values {
		for i, v := range res.Int64(name) {
			var k int64
			if keys != nil {
				k = keys[i]
			}
			c.add(k, col, v)
		}
	}
	return c
}
