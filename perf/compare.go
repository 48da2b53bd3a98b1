package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchSpec is what -compare needs of BENCHMARK.json: which metrics carry
// a bound, how large it is and which direction is worse.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runSet is one -json file: every run's value of every metric, by
// workload and metric name.
type runSet struct {
	values map[string]map[string][]float64
	// failed lists the runs whose ops failed or whose output was wrong.
	failed []string
}

func loadRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var records []runRecord
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	set := &runSet{values: make(map[string]map[string][]float64)}
	for _, r := range records {
		if !r.Result.Correct || r.Result.Failed > 0 {
			set.failed = append(set.failed, fmt.Sprintf("%s: %s seed %d trace %d: %d of %d ops failed, correct=%v",
				path, r.Workload, r.Seed, r.Trace, r.Result.Failed, r.Result.Attempted, r.Result.Correct))
		}
		byMetric := set.values[r.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			set.values[r.Workload] = byMetric
		}
		for name, m := range r.Result.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return set, nil
}

// spread is the distance between the first and third quartile as a share
// of the median: how far apart runs of the same code land.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return ratio(q3-q1, median(values))
}

// Verdicts of a bounded metric.
const (
	within     = "within bound"
	regressed  = "REGRESSED"
	unresolved = "unresolved (spread wider than bound)"
)

// verdict judges set b against set a by how far b's median is on the
// wrong side of a's, as a share of a's.
func verdict(m metricSpec, a, b []float64) string {
	worse := ratio(median(b)-median(a), median(a))
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return regressed
	case max(spread(a), spread(b)) > m.Bound:
		return unresolved
	default:
		return within
	}
}

// compareFiles prints, for every workload and metric two -json files
// share, both medians and spreads and the change between them, with a
// verdict where the metric has a bound. A regression, or any failed op,
// is an error.
func compareFiles(w io.Writer, specPath string, files []string) error {
	if len(files) != 2 {
		return fmt.Errorf("-compare takes two -json files, got %d", len(files))
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := loadRunSet(files[0])
	if err != nil {
		return err
	}
	b, err := loadRunSet(files[1])
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\ta spread\tb median\tb spread\tchange\tbound\tverdict")
	regressions := 0
	metrics := append(spec.EndToEnd, spec.PerLayer...)
	for _, wl := range workloads {
		for _, m := range metrics {
			va, vb := a.values[wl.name][m.Name], b.values[wl.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			change := ratio(median(vb)-median(va), median(va))
			bound, v := "", ""
			if m.Bound > 0 {
				v = verdict(m, va, vb)
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
				if v == regressed {
					regressions++
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.1f%%\t%.6g\t%.1f%%\t%+.1f%%\t%s\t%s\n",
				wl.name, m.Name, m.Unit, median(va), 100*spread(va), median(vb), 100*spread(vb), 100*change, bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	failed := append(a.failed, b.failed...)
	for _, f := range failed {
		fmt.Fprintln(w, "failed:", f)
	}
	if regressions > 0 || len(failed) > 0 {
		return fmt.Errorf("%d metric(s) regressed, %d run(s) with failed ops", regressions, len(failed))
	}
	return nil
}
