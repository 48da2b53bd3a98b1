package tpch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"github.com/adamant-db/adamant/internal/device"
)

func TestBuildQueryShapes(t *testing.T) {
	ds := smallDataset(t)
	dev := device.ID(0)

	cases := map[string]struct {
		pipelines int
		results   int
	}{
		"Q1": {pipelines: 4, results: 4}, // scan pipeline + 3 extract pipelines
		"Q3": {pipelines: 4, results: 2}, // customer, orders, lineitem, extract
		"Q4": {pipelines: 3, results: 2}, // lineitem, orders, extract
		"Q6": {pipelines: 1, results: 1},
	}
	for q, want := range cases {
		g, err := BuildQuery(q, ds, dev)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: validate: %v", q, err)
		}
		ps, err := g.BuildPipelines()
		if err != nil {
			t.Fatalf("%s: pipelines: %v", q, err)
		}
		if len(ps) != want.pipelines {
			t.Errorf("%s: %d pipelines, want %d", q, len(ps), want.pipelines)
		}
		if len(g.Results()) != want.results {
			t.Errorf("%s: %d results, want %d", q, len(g.Results()), want.results)
		}
	}

	if _, err := BuildQuery("Q99", ds, dev); err == nil {
		t.Error("unknown query accepted")
	}
}

func TestQ3PipelineDependencies(t *testing.T) {
	ds := smallDataset(t)
	g, err := BuildQuery("Q3", ds, device.ID(0))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := g.BuildPipelines()
	if err != nil {
		t.Fatal(err)
	}
	// orders depends on customers, lineitem on orders, extract on lineitem.
	deps := map[int][]int{1: {0}, 2: {1}, 3: {2}}
	for idx, want := range deps {
		got := ps[idx].DependsOn
		if len(got) != len(want) || got[0] != want[0] {
			t.Errorf("pipeline %d deps = %v, want %v", idx, got, want)
		}
	}
	// The lineitem pipeline streams the most rows.
	if ps[2].ScanRows(g) != ds.Lineitem.Rows() {
		t.Errorf("pipeline 2 rows = %d", ps[2].ScanRows(g))
	}
	// The extract pipeline has no streamed inputs.
	if len(ps[3].Scans) != 0 {
		t.Errorf("extract pipeline scans = %d", len(ps[3].Scans))
	}
}

// TestPerfQueriesMatch guards against drift between the benchmark and the
// reproduction: perf/workload.go keeps its own copies of the four query
// texts, and they must equal this package's up to whitespace, or the
// benchmark would measure plans the reproduction does not run.
func TestPerfQueriesMatch(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../../perf/workload.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	perf := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			if !strings.HasPrefix(name.Name, "sqlQ") || i >= len(spec.Values) {
				continue
			}
			if lit, ok := spec.Values[i].(*ast.BasicLit); ok {
				if perf[name.Name], err = strconv.Unquote(lit.Value); err != nil {
					t.Fatalf("%s: %v", name.Name, err)
				}
			}
		}
		return true
	})
	norm := func(s string) string { return strings.Join(strings.Fields(s), " ") }
	for _, q := range []string{"Q1", "Q3", "Q4", "Q6"} {
		ours := queries[q]
		theirs, ok := perf["sql"+q]
		if !ok {
			t.Errorf("perf/workload.go has no sql%s", q)
			continue
		}
		if norm(theirs) != norm(ours) {
			t.Errorf("sql%s drifted from tpch.SQL%s:\n perf: %s\n tpch: %s", q, q, norm(theirs), norm(ours))
		}
	}
}
