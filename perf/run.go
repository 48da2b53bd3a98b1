package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

// processStart stands in for the moment the process began; the first
// set-up is timed from here.
var processStart = time.Now()

const (
	// setupRepeats is how often a run sets up, so setup_s is a median.
	setupRepeats = 3
	// maxDrift is the drift_share above which a measured phase counts as
	// unstable and is repeated once.
	maxDrift = 0.05
)

// runConfig is one run of one workload.
type runConfig struct {
	w    *workload
	seed uint64
	// d is the length of the measured phase.
	d time.Duration
	// quick is the smoke test: a sixteenth of the data, a tenth of the
	// warm-up and twenty measured ops whatever d says.
	quick bool
	// out, when set, is where the traced run writes its spans.
	out string
}

func (c *runConfig) warmup() extent {
	if c.quick {
		return extent{ops: (c.w.warmup + 9) / 10}
	}
	return extent{ops: c.w.warmup}
}

// measured is the extent of a measured phase that gets the given share of
// the run's length.
func (c *runConfig) measured(share float64) extent {
	ops, d := minMeasuredOps, c.d
	if c.quick {
		ops, d = 20, 0
	}
	perClient := float64(ops) * share / float64(c.w.numClients())
	return extent{ops: int(math.Ceil(perClient)), d: time.Duration(float64(d) * share)}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's result. Its JSON form is the last line a run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	order []string
	notes []string
}

func (r *report) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metricValue)
	}
	r.Metrics[name] = metricValue{v, unit}
	r.order = append(r.order, name)
}

// count adds a stretch of load to the run's attempted and failed ops.
func (r *report) count(s *samples) {
	r.Attempted += s.attempted()
	r.Failed += s.failed
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes every metric by name and unit, then the one-line JSON form.
func (r *report) print(w io.Writer, workload string) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-22s %-28s %14.6g %s\n", workload, name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// setUp generates the inputs, builds the workload's engine and warms it
// up: everything between process start and the first measured op.
func setUp(cfg *runConfig, rep *report) (*target, error) {
	ds, _, err := cfg.w.generate(cfg.seed, cfg.quick)
	if err != nil {
		return nil, err
	}
	t, err := cfg.w.newTarget(ds, cfg.w.observed, plugStock)
	if err != nil {
		return nil, err
	}
	rep.count(drive(t, cfg.warmup(), nil))
	return t, nil
}

// runEndToEnd is the untraced run: it reports what a user of the engine
// sees.
func runEndToEnd(cfg *runConfig) (*report, error) {
	rep := &report{}
	var t *target
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t = nil
		runtime.GC() // the previous set-up's data must not weigh on this one
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		var err error
		if t, err = setUp(cfg, rep); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	s, mem := measure(t, cfg.measured(1))
	rep.count(s)
	if drift := driftShare(s.wallMS); drift > maxDrift {
		rep.notef("drift_share %.3f > %.2f: measured phase unstable, repeated once", drift, maxDrift)
		s, mem = measure(t, cfg.measured(1))
		rep.count(s)
	}

	n := float64(s.attempted())
	sorted := sortedCopy(s.wallMS)
	p50, _ := percentile(sorted, 0.50)
	rep.set("op_wall_ms_p50", "ms", p50)
	if p95, err := percentile(sorted, 0.95); err != nil {
		rep.notef("op_wall_ms_p95 not reported: %v", err)
	} else {
		rep.set("op_wall_ms_p95", "ms", p95)
	}
	rep.set("ops_per_s", "1/s", n/s.elapsed.Seconds())
	rep.set("virtual_ms_p50", "ms", median(s.virtualMS))
	rep.set("alloc_mb_per_op", "MB", mem.allocMB/n)
	rep.set("allocs_per_op", "count", mem.mallocs/n)
	rep.set("heap_live_mb", "MB", mem.liveMB)
	rep.set("setup_s", "s", median(setups))

	rep.notef("%s seed %d: %d measured ops in %.2f s, %d lineitem rows, %d client(s), drift_share %.3f",
		cfg.w.name, cfg.seed, s.attempted(), s.elapsed.Seconds(), t.rows, cfg.w.numClients(), driftShare(s.wallMS))
	rep.Correct = rep.Failed == 0 && virtualTimeHolds(cfg.w, s, rep)
	return rep, nil
}

// virtualTimeHolds checks the two-clock contract on a single-client
// workload: virtual time is the device model's, so every op of one query
// on one engine must report the same value, whatever the host did.
func virtualTimeHolds(w *workload, s *samples, rep *report) bool {
	if w.numClients() > 1 {
		return true // clients share the device's timelines, so ops interleave
	}
	lo, hi := s.virtualMS[0], s.virtualMS[0]
	for _, v := range s.virtualMS {
		lo, hi = min(lo, v), max(hi, v)
	}
	if lo != hi {
		rep.notef("virtual time is not constant on single-client %s: %.6f .. %.6f ms", w.name, lo, hi)
	}
	return lo == hi
}

// memUse is the Go heap's account of a measured phase.
type memUse struct {
	allocMB, mallocs float64
	liveMB           float64
}

const mb = 1 << 20

// measure drives one measured phase and reads the heap around it.
func measure(t *target, ext extent) (*samples, memUse) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := drive(t, ext, nil)
	runtime.ReadMemStats(&after)
	use := memUse{
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / mb,
		mallocs: float64(after.Mallocs - before.Mallocs),
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	use.liveMB = float64(after.HeapAlloc) / mb
	return s, use
}
