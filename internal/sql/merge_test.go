package sql

import "testing"

// TestMergeRangesAllocatesOnlyOnMerge: a block with no range pair is
// lowered from its own WHERE slice, without a copy.
func TestMergeRangesAllocatesOnlyOnMerge(t *testing.T) {
	plain := mustParse(t, `SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b < 3 AND c >= 2`).Where
	if allocs := testing.AllocsPerRun(100, func() { mergeRanges(plain) }); allocs != 0 {
		t.Errorf("unmerged block allocated %v times", allocs)
	}
	pair := mustParse(t, `SELECT a FROM t WHERE b >= 2 AND a < 9 AND b < 7`).Where
	got := mergeRanges(pair)
	if len(got) != 2 || got[0].String() != "b BETWEEN 2 AND 6" || got[1].String() != "a < 9" {
		t.Errorf("merged = %v, want [b BETWEEN 2 AND 6, a < 9]", got)
	}
	if pair[0].Kind != CondCmp || len(pair) != 3 {
		t.Error("merging rewrote the parsed query")
	}
}
