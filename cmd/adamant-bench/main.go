// Command adamant-bench regenerates the paper's evaluation tables and
// figures (§V) from the simulated ADAMANT stack as aligned text tables.
//
// Usage:
//
//	adamant-bench [-exp name] [-quick] [-ratio f] [-seed n]
//
// With no -exp it runs every experiment, in name order. Experiment names:
// table2, fig3, fig5, fig6, fig7, fig9, fig10, fig11, heavydb,
// chunksweep, cache, fuse, auto, shard. Every -quick table is virtual
// time over seeded data, so `adamant-bench -quick -seed 7` prints exactly
// the concatenation of internal/experiments/testdata/quick/*.txt.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/adamant-db/adamant/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (default: all); one of "+fmt.Sprint(experiments.Names()))
	quick := flag.Bool("quick", false, "shrink workloads for a fast run")
	ratio := flag.Float64("ratio", 0, "TPC-H down-scale ratio (0 = profile default)")
	seed := flag.Uint64("seed", 42, "data generator seed")
	flag.Parse()

	// Ctrl-C cancels the in-flight query at its next chunk boundary; the
	// interrupted experiment reports how far it got instead of dying
	// mid-allocation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := experiments.Config{Quick: *quick, Ratio: *ratio, Seed: *seed, Ctx: ctx}

	var err error
	if *exp == "" {
		err = experiments.RunAll(cfg, os.Stdout)
	} else {
		var gen experiments.Generator
		gen, err = experiments.Lookup(*exp)
		if err == nil {
			err = gen(cfg, os.Stdout)
		}
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "adamant-bench: interrupted — partial results above")
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "adamant-bench: %v\n", err)
		os.Exit(1)
	}
}
