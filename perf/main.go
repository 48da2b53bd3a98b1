// Command perf is the repository's benchmark: four named workloads driven
// through the public facade, measured on both of the engine's clocks, with
// a traced run that splits the wall time by layer at the device seam. See
// README.md in this directory for the metrics and how to read them.
//
//	go run ./perf -workload q6_scan_cold -seed 42 -seconds 12 -trace 0
//	go run ./perf -runs 10 -json a.json      # every workload, both kinds of run
//	go run ./perf -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process; empty runs all, each run in a fresh child process")
		seed    = flag.Uint64("seed", 42, "seed of the generated TPC-H data")
		seconds = flag.Int("seconds", 12, "length of a run's measured phase")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		quick   = flag.Bool("quick", false, "smoke run: 20 ops per workload on a sixteenth of the data")
		out     = flag.String("out", "", "directory for the traced run's trace-<workload>.json (default: spans stay in memory)")
		runs    = flag.Int("runs", 1, "with no -workload: runs per workload and kind, on seeds seed, seed+1, ...")
		jsonOut = flag.String("json", "", "with no -workload: write every run's result to this file, for -compare")
		compare = flag.Bool("compare", false, "compare two -json files given as arguments; exit 1 on a regression")
		spec    = flag.String("spec", "BENCHMARK.json", "with -compare: the file that names metrics, directions and bounds")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareFiles(os.Stdout, *spec, flag.Args())
	case *name == "":
		err = runAll(*seed, *seconds, *runs, *quick, *out, *jsonOut)
	default:
		err = runOne(*name, *seed, *seconds, *trace, *quick, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

// runOne is one run in this process; its last line of output is the
// result as JSON.
func runOne(name string, seed uint64, seconds, trace int, quick bool, out string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	cfg := &runConfig{w: w, seed: seed, quick: quick, out: out, d: time.Duration(seconds) * time.Second}
	run := runEndToEnd
	if trace != 0 {
		run = runTraced
	}
	rep, err := run(cfg)
	if err != nil {
		return err
	}
	return rep.print(os.Stdout, name)
}

// runRecord is one run as -json stores it and -compare reads it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   report `json:"result"`
}

// runAll runs every workload untraced and then traced, each run in a fresh
// child process so no run inherits another's heap or caches.
func runAll(seed uint64, seconds, runs int, quick bool, out, jsonOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var records []runRecord
	for trace := 0; trace <= 1; trace++ {
		for _, w := range workloads {
			for r := 0; r < runs; r++ {
				rec := runRecord{Workload: w.name, Seed: seed + uint64(r), Trace: trace}
				args := []string{
					"-workload", w.name, "-seed", strconv.FormatUint(rec.Seed, 10),
					"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace),
					"-quick=" + strconv.FormatBool(quick), "-out", out,
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				os.Stdout.Write(stdout)
				if err != nil {
					return fmt.Errorf("%s (trace %d, seed %d): %w", w.name, trace, rec.Seed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				if err := json.Unmarshal(lines[len(lines)-1], &rec.Result); err != nil {
					return fmt.Errorf("%s: result line: %w", w.name, err)
				}
				records = append(records, rec)
			}
		}
	}
	if jsonOut == "" {
		return nil
	}
	data, err := json.MarshalIndent(records, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonOut, append(data, '\n'), 0o644)
}
