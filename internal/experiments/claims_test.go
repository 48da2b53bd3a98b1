package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The paper's qualitative findings, stated as orderings over the cells of
// the quick report. TestAllGeneratorsRun checks them on every freshly
// generated report before comparing (or rewriting) the golden, so a re-pin
// with -update that inverts a finding still fails.

// reportTable is one "== title ==" block of a generated report.
type reportTable struct {
	title  string
	header []string
	rows   [][]string
}

// parseReport splits a report into its tables. Column bounds come from the
// dashed rule under the header, because cells such as "GeForce RTX 2080 Ti"
// contain spaces.
func parseReport(s string) []*reportTable {
	var tabs []*reportTable
	lines := strings.Split(s, "\n")
	for i := 0; i < len(lines); i++ {
		title, ok := strings.CutPrefix(lines[i], "== ")
		if !ok {
			continue
		}
		t := &reportTable{title: strings.TrimSuffix(title, " ==")}
		tabs = append(tabs, t)
		j := i + 1
		for j < len(lines) && !isRule(lines[j]) {
			j++
		}
		if j == len(lines) {
			break
		}
		bounds := ruleBounds(lines[j])
		t.header = splitCells(lines[j-1], bounds)
		for i = j + 1; i < len(lines) && lines[i] != ""; i++ {
			t.rows = append(t.rows, splitCells(lines[i], bounds))
		}
	}
	return tabs
}

func isRule(line string) bool {
	return strings.HasPrefix(line, "-") && strings.Trim(line, "- ") == ""
}

// ruleBounds returns the [start, end) byte span of each dash run.
func ruleBounds(rule string) [][2]int {
	var bounds [][2]int
	for i := 0; i < len(rule); {
		if rule[i] != '-' {
			i++
			continue
		}
		j := i
		for j < len(rule) && rule[j] == '-' {
			j++
		}
		bounds = append(bounds, [2]int{i, j})
		i = j
	}
	return bounds
}

func splitCells(line string, bounds [][2]int) []string {
	cells := make([]string, len(bounds))
	for i, b := range bounds {
		lo, hi := min(b[0], len(line)), min(b[1], len(line))
		cells[i] = strings.TrimSpace(line[lo:hi])
	}
	return cells
}

func (t *reportTable) col(name string) int {
	for i, h := range t.header {
		if h == name {
			return i
		}
	}
	return -1
}

// cell returns the named column of row, or "" for a missing row or column.
func (t *reportTable) cell(row []string, col string) string {
	if i := t.col(col); row != nil && i >= 0 {
		return row[i]
	}
	return ""
}

// num parses a numeric cell ("12.08", "1.94x", "67%"); NaN when the cell is
// missing or not a number, so every ordering over it is false.
func (t *reportTable) num(row []string, col string) float64 {
	v, err := strconv.ParseFloat(strings.TrimRight(t.cell(row, col), "x%"), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// row returns the first row whose cells match the (column, value) pairs.
func (t *reportTable) row(kv ...string) []string {
	for _, r := range t.rows {
		match := true
		for i := 0; i < len(kv); i += 2 {
			match = match && t.cell(r, kv[i]) == kv[i+1]
		}
		if match {
			return r
		}
	}
	return nil
}

// colsAfter lists the header names to the right of col.
func (t *reportTable) colsAfter(col string) []string {
	return t.header[t.col(col)+1:]
}

// device returns the device half of the first "<device>/<sdk>" driver cell
// among rows whose setup cell is setup ("" matches any).
func (t *reportTable) device(setup, sdk string) string {
	for _, r := range t.rows {
		dev, s, ok := strings.Cut(t.cell(r, "driver"), "/")
		if ok && s == sdk && (setup == "" || t.cell(r, "setup") == setup) {
			return dev
		}
	}
	return ""
}

// titled returns the tables whose title starts with prefix.
func titled(tabs []*reportTable, prefix string) ([]*reportTable, error) {
	var out []*reportTable
	for _, t := range tabs {
		if strings.HasPrefix(t.title, prefix) {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no table titled %q", prefix)
	}
	return out, nil
}

// above fails unless row a beats row b in every listed column.
func above(t *reportTable, a, b []string, cols []string, what string) error {
	for _, c := range cols {
		if !(t.num(a, c) > t.num(b, c)) {
			return fmt.Errorf("%s, %s: %q is not above %q", what, c, t.cell(a, c), t.cell(b, c))
		}
	}
	return nil
}

// everyRow fails unless ok holds for col in every row of the first table
// titled prefix.
func everyRow(tabs []*reportTable, prefix, col string, ok func(float64) bool) error {
	found, err := titled(tabs, prefix)
	if err != nil {
		return err
	}
	t := found[0]
	for _, r := range t.rows {
		if !ok(t.num(r, col)) {
			return fmt.Errorf("%s is %q in row %q", col, t.cell(r, col), r)
		}
	}
	return nil
}

func aboveOne(v float64) bool { return v > 1 }

// autoRows fails unless every row of the auto planner table for the given
// catalog state is within bound of the best manual cell and, when
// rehearsals >= 0, ran exactly that many rehearsals.
func autoRows(tabs []*reportTable, catalog string, bound float64, rehearsals int) error {
	found, err := titled(tabs, "Auto planner")
	if err != nil {
		return err
	}
	t, n := found[0], 0
	for _, r := range t.rows {
		if t.cell(r, "catalog") != catalog {
			continue
		}
		n++
		what := t.cell(r, "query") + " SF " + t.cell(r, "SF") + " " + catalog
		if !(t.num(r, "vs best") <= bound) {
			return fmt.Errorf("%s: %q of the best manual cell", what, t.cell(r, "vs best"))
		}
		if rehearsals >= 0 && t.num(r, "rehearsals") != float64(rehearsals) {
			return fmt.Errorf("%s: %q rehearsals, want %d", what, t.cell(r, "rehearsals"), rehearsals)
		}
	}
	if n == 0 {
		return fmt.Errorf("no %s rows", catalog)
	}
	return nil
}

// claim is one qualitative finding over the tables of one generator.
type claim struct {
	exp   string
	name  string
	check func(tabs []*reportTable) error
}

var claims = []claim{
	{"fig3", "Fig. 3: pinned transfers beat pageable ones", func(tabs []*reportTable) error {
		t := tabs[0]
		for _, r := range t.rows {
			if t.cell(r, "mode") != "pinned" {
				continue
			}
			gpu, sdk, dir := t.cell(r, "gpu"), t.cell(r, "sdk"), t.cell(r, "dir")
			pageable := t.row("gpu", gpu, "sdk", sdk, "mode", "pageable", "dir", dir)
			if err := above(t, r, pageable, t.colsAfter("dir"), gpu+" "+sdk+" "+dir); err != nil {
				return err
			}
		}
		return nil
	}},
	{"fig3", "Fig. 3: CUDA transfers beat OpenCL ones", func(tabs []*reportTable) error {
		t := tabs[0]
		for _, r := range t.rows {
			if t.cell(r, "sdk") != "CUDA" {
				continue
			}
			gpu, mode, dir := t.cell(r, "gpu"), t.cell(r, "mode"), t.cell(r, "dir")
			ocl := t.row("gpu", gpu, "sdk", "OpenCL", "mode", mode, "dir", dir)
			if err := above(t, r, ocl, t.colsAfter("dir"), gpu+" "+mode+" "+dir); err != nil {
				return err
			}
		}
		return nil
	}},
	{"fig5", "Fig. 5: GPU/CUDA > GPU/OpenCL > CPU/OpenCL > CPU/OpenMP", func(tabs []*reportTable) error {
		t := tabs[0]
		for _, setup := range []string{"Setup 1", "Setup 2"} {
			gpu, cpu := t.device(setup, "cuda"), t.device(setup, "openmp")
			chain := []string{gpu + "/cuda", gpu + "/opencl", cpu + "/opencl", cpu + "/openmp"}
			for i := 1; i < len(chain); i++ {
				hi, lo := t.row("setup", setup, "driver", chain[i-1]), t.row("setup", setup, "driver", chain[i])
				if err := above(t, hi, lo, t.colsAfter("driver"), setup); err != nil {
					return err
				}
			}
		}
		return nil
	}},
	{"fig9", "Fig. 9(a,b): the CPU bitmap filter is faster on OpenCL than on OpenMP", func(tabs []*reportTable) error {
		filters, err := titled(tabs, "Figure 9(a,b)")
		if err != nil {
			return err
		}
		for _, t := range filters {
			cpu := t.device("", "openmp")
			ocl := t.row("driver", cpu+"/opencl", "variant", "bitmap")
			omp := t.row("driver", cpu+"/openmp", "variant", "bitmap")
			if err := above(t, ocl, omp, t.colsAfter("variant"), t.title); err != nil {
				return err
			}
		}
		return nil
	}},
	{"fig9", "Fig. 9(c): hash aggregation is faster on CPU/OpenCL than on GPU/OpenCL", func(tabs []*reportTable) error {
		aggs, err := titled(tabs, "Figure 9(c)")
		if err != nil {
			return err
		}
		for _, t := range aggs {
			cpu := t.row("driver", t.device("", "openmp")+"/opencl")
			gpu := t.row("driver", t.device("", "cuda")+"/opencl")
			if err := above(t, cpu, gpu, t.colsAfter("driver"), t.title); err != nil {
				return err
			}
		}
		return nil
	}},
	{"fig11", "Fig. 11: 4p-pipelined beats chunked, except OpenCL Q4", func(tabs []*reportTable) error {
		t := tabs[0]
		for _, r := range t.rows {
			what := t.cell(r, "setup") + " " + t.cell(r, "query") + " " + t.cell(r, "driver")
			if t.cell(r, "driver") == "OpenCL" && t.cell(r, "query") == "Q4" {
				if !(t.num(r, "best vs chunked") < 1) {
					return fmt.Errorf("%s: best vs chunked %q should stay below 1.00x", what, t.cell(r, "best vs chunked"))
				}
			} else if !(t.num(r, "4p-pipelined") < t.num(r, "chunked")) {
				return fmt.Errorf("%s: 4p-pipelined %q is not below chunked %q", what, t.cell(r, "4p-pipelined"), t.cell(r, "chunked"))
			}
		}
		return nil
	}},
	{"auto", "auto: a cold plan lands within 2% of the best manual cell", func(tabs []*reportTable) error {
		return autoRows(tabs, "cold", 1.02, -1)
	}},
	{"auto", "auto: a warm plan lands within 5% of the best manual cell and rehearses nothing", func(tabs []*reportTable) error {
		return autoRows(tabs, "warm", 1.05, 0)
	}},
	{"cache", "cache: warm runs ship no H2D bytes", func(tabs []*reportTable) error {
		return everyRow(tabs, "Cache warm", "H2D MiB", func(v float64) bool { return v == 0 })
	}},
	{"cache", "cache: warm runs beat cold ones", func(tabs []*reportTable) error {
		return everyRow(tabs, "Cache warm", "speedup vs cold", aboveOne)
	}},
	{"fuse", "fuse: fusion launches fewer kernels", func(tabs []*reportTable) error {
		off, err := titled(tabs, "Fusion off")
		if err != nil {
			return err
		}
		on, err := titled(tabs, "Fusion on")
		if err != nil {
			return err
		}
		for _, r := range on[0].rows {
			model := on[0].cell(r, "model")
			if !(on[0].num(r, "kernels") < off[0].num(off[0].row("model", model), "kernels")) {
				return fmt.Errorf("%s: fused kernels %q did not go down", model, on[0].cell(r, "kernels"))
			}
		}
		return nil
	}},
	{"fuse", "fuse: fusion speeds every model up", func(tabs []*reportTable) error {
		return everyRow(tabs, "Fusion on", "speedup", aboveOne)
	}},
	{"shard", "shard: speedup rises strictly from 1 to 8 shards", func(tabs []*reportTable) error {
		scale, err := titled(tabs, "Shard scale-out")
		if err != nil {
			return err
		}
		for _, t := range scale {
			prev := t.row("shards", "1")
			for _, n := range []string{"2", "4", "8"} {
				r := t.row("shards", n)
				if err := above(t, r, prev, []string{"speedup vs 1"}, t.title+", "+n+" shards"); err != nil {
					return err
				}
				prev = r
			}
		}
		return nil
	}},
	{"shard", "shard: the hedged straggler beats the unhedged one", func(tabs []*reportTable) error {
		strag, err := titled(tabs, "Shard straggler")
		if err != nil {
			return err
		}
		t := strag[0]
		return above(t, t.row("mode", "unhedged"), t.row("mode", "hedged"), []string{"elapsed ms"}, "unhedged vs hedged")
	}},
	{"shard", "shard: exactly one hedge wins", func(tabs []*reportTable) error {
		strag, err := titled(tabs, "Shard straggler")
		if err != nil {
			return err
		}
		t := strag[0]
		if wins := t.cell(t.row("mode", "hedged"), "hedge wins"); wins != "1" {
			return fmt.Errorf("hedged run reports %q hedge wins", wins)
		}
		return nil
	}},
}

// checkClaims checks every claim over exp's report and returns one error,
// naming the claim, per claim that fails.
func checkClaims(exp string, tabs []*reportTable) []error {
	var errs []error
	for _, c := range claims {
		if c.exp != exp {
			continue
		}
		if len(tabs) == 0 {
			errs = append(errs, fmt.Errorf("%s: empty report", c.name))
		} else if err := c.check(tabs); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", c.name, err))
		}
	}
	return errs
}

// TestClaimsCatchInversions checks that the pinned quick report passes every
// claim, then inverts one cell of it per case and expects the claim that the
// cell backs to fail by name.
func TestClaimsCatchInversions(t *testing.T) {
	cases := []struct {
		claim string
		table string   // title prefix
		row   []string // (column, value) pairs
		col   string
		value string
	}{
		{"Fig. 3: pinned transfers beat pageable ones", "Figure 3",
			[]string{"gpu", "Nvidia A100", "sdk", "OpenCL", "mode", "pinned", "dir", "D2H"}, "8MiB", "6.00"},
		{"Fig. 3: CUDA transfers beat OpenCL ones", "Figure 3",
			[]string{"gpu", "GeForce RTX 2080 Ti", "sdk", "OpenCL", "mode", "pageable", "dir", "H2D"}, "64MiB", "7.00"},
		{"Fig. 5: GPU/CUDA > GPU/OpenCL > CPU/OpenCL > CPU/OpenMP", "Figure 5",
			[]string{"setup", "Setup 2", "driver", "Intel Xeon Gold 5220R/openmp"}, "reduce Mval/s", "30000.0"},
		{"Fig. 5: GPU/CUDA > GPU/OpenCL > CPU/OpenCL > CPU/OpenMP", "Figure 5",
			[]string{"setup", "Setup 1", "driver", "GeForce RTX 2080 Ti/opencl"}, "map Mval/s", "40000.0"},
		{"Fig. 9(a,b): the CPU bitmap filter is faster on OpenCL than on OpenMP", "Figure 9(a,b) [Setup 2]",
			[]string{"driver", "Intel Xeon Gold 5220R/openmp", "variant", "bitmap"}, "sel50%", "20000.0"},
		{"Fig. 9(c): hash aggregation is faster on CPU/OpenCL than on GPU/OpenCL", "Figure 9(c) [Setup 1]",
			[]string{"driver", "GeForce RTX 2080 Ti/opencl"}, "2^20 groups", "300.0"},
		{"Fig. 11: 4p-pipelined beats chunked, except OpenCL Q4", "Figure 11",
			[]string{"query", "Q6", "driver", "CUDA"}, "4p-pipelined", "0.0200"},
		{"Fig. 11: 4p-pipelined beats chunked, except OpenCL Q4", "Figure 11",
			[]string{"query", "Q4", "driver", "OpenCL"}, "best vs chunked", "1.20x"},
		{"auto: a cold plan lands within 2% of the best manual cell", "Auto planner",
			[]string{"query", "Q1", "catalog", "cold"}, "vs best", "4.12x"},
		{"auto: a warm plan lands within 5% of the best manual cell and rehearses nothing", "Auto planner",
			[]string{"query", "Q3", "catalog", "warm"}, "vs best", "1.10x"},
		{"auto: a warm plan lands within 5% of the best manual cell and rehearses nothing", "Auto planner",
			[]string{"query", "Q6", "catalog", "warm"}, "rehearsals", "20"},
		{"cache: warm runs ship no H2D bytes", "Cache warm",
			[]string{"model", "chunked"}, "H2D MiB", "0.1"},
		{"cache: warm runs beat cold ones", "Cache warm",
			[]string{"model", "oaat"}, "speedup vs cold", "0.95x"},
		{"fuse: fusion launches fewer kernels", "Fusion on",
			[]string{"model", "pipelined"}, "kernels", "163"},
		{"fuse: fusion speeds every model up", "Fusion on",
			[]string{"model", "4p-chunked"}, "speedup", "1.00x"},
		{"shard: speedup rises strictly from 1 to 8 shards", "Shard scale-out warm",
			[]string{"shards", "4"}, "speedup vs 1", "1.90x"},
		{"shard: speedup rises strictly from 1 to 8 shards", "Shard scale-out cold",
			[]string{"shards", "8"}, "speedup vs 1", "3.40x"},
		{"shard: the hedged straggler beats the unhedged one", "Shard straggler",
			[]string{"mode", "hedged"}, "elapsed ms", "3.200"},
		{"shard: exactly one hedge wins", "Shard straggler",
			[]string{"mode", "hedged"}, "hedge wins", "2"},
	}
	planted := map[string]bool{}
	for _, tc := range cases {
		var exp string
		for _, c := range claims {
			if c.name == tc.claim {
				exp = c.exp
			}
		}
		if exp == "" {
			t.Fatalf("no claim named %q", tc.claim)
		}
		planted[tc.claim] = true
		t.Run(tc.claim+"/"+tc.col, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "quick", exp+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			tabs := parseReport(string(golden))
			if errs := checkClaims(exp, tabs); len(errs) > 0 {
				t.Fatalf("pinned report already fails: %v", errs)
			}
			found, err := titled(tabs, tc.table)
			if err != nil {
				t.Fatal(err)
			}
			tb := found[0]
			r, c := tb.row(tc.row...), tb.col(tc.col)
			if r == nil || c < 0 {
				t.Fatalf("no cell %v/%s in %q", tc.row, tc.col, tb.title)
			}
			r[c] = tc.value
			for _, err := range checkClaims(exp, tabs) {
				if strings.HasPrefix(err.Error(), tc.claim+": ") {
					return
				}
			}
			t.Errorf("inverting %v/%s to %q did not fail %q", tc.row, tc.col, tc.value, tc.claim)
		})
	}
	for _, c := range claims {
		if !planted[c.name] {
			t.Errorf("claim %q has no planted inversion", c.name)
		}
	}
}
