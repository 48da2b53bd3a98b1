// Command adamant-run executes a TPC-H query on the simulated ADAMANT
// stack and prints its results and execution statistics.
//
// Usage:
//
//	adamant-run -q Q6 -sf 10 -driver cuda -model 4p-pipelined
//	adamant-run -sql "SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_quantity < 24"
//
// Drivers: cuda, opencl-gpu, opencl-cpu, openmp. Models: oaat, chunked,
// pipelined, 4p-chunked, 4p-pipelined. With -sql, the query runs through
// the SQL front-end against the generated TPC-H catalog instead of the
// built-in plans.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/adamant-db/adamant/internal/bufpool"
	"github.com/adamant-db/adamant/internal/cost"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/driver/simomp"
	"github.com/adamant-db/adamant/internal/driver/simopencl"
	"github.com/adamant-db/adamant/internal/exec"
	"github.com/adamant-db/adamant/internal/fault"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/hub"
	"github.com/adamant-db/adamant/internal/profile"
	"github.com/adamant-db/adamant/internal/shard"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/sql"
	"github.com/adamant-db/adamant/internal/tpch"
	"github.com/adamant-db/adamant/internal/trace"
	"github.com/adamant-db/adamant/internal/vclock"
)

func main() {
	// Ctrl-C cancels the in-flight query at the next chunk boundary: the
	// executor releases every buffer it allocated and run prints the
	// partial timings instead of dying mid-allocation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "adamant-run: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	q := flag.String("q", "Q6", "query: Q1, Q3, Q4 or Q6")
	sqlText := flag.String("sql", "", "run this SQL query against the TPC-H catalog instead of -q")
	sf := flag.Float64("sf", 1, "TPC-H scale factor")
	ratio := flag.Float64("ratio", 1.0/64, "down-scale ratio for generated data")
	driver := flag.String("driver", "cuda", "driver: cuda, opencl-gpu, opencl-cpu, openmp")
	modelName := flag.String("model", "4p-pipelined", "execution model: oaat, chunked, pipelined, 4p-chunked, 4p-pipelined")
	chunk := flag.Int("chunk", 0, "chunk size in values (0 = 2^25 scaled by ratio)")
	seed := flag.Uint64("seed", 42, "generator seed")
	maxRows := flag.Int("rows", 10, "result rows to print")
	explain := flag.Bool("explain", false, "print the pipeline plan before executing")
	analyze := flag.Bool("analyze", false, "print the plan annotated with measured per-primitive virtual times after executing")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the execution to this file")
	metrics := flag.Bool("metrics", false, "print the cumulative execution-metrics snapshot after executing")
	timeline := flag.Bool("timeline", false, "render the copy/compute engine timelines after executing")
	faults := flag.String("faults", "", "fault-injection plan, e.g. seed=7,transient=0.01,die=500 (repro scripts)")
	fallback := flag.String("fallback", "", "plug a second device (cuda, opencl-gpu, opencl-cpu, openmp) as the failover target")
	retries := flag.Int("retries", 0, "max retries per device op for transient faults")
	deadline := flag.Duration("deadline", 0, "virtual-time budget for the query; exceeding it at a chunk boundary fails the run (0 = none)")
	adapt := flag.Bool("adapt", false, "adaptive chunking: on device OOM, halve the chunk size and retry, then re-place on a host device")
	serveAddr := flag.String("serve", "", "run as a telemetry service on this address (e.g. :9090 or 127.0.0.1:0), exposing /metrics, /events, /flight and /util")
	warm := flag.Int("serve-warm", 3, "queries to run at service start so telemetry is populated (with -serve)")
	cacheMiB := flag.Int64("cache", 0, "device buffer-pool capacity in MiB; base columns stay cached across queries (0 = off)")
	cachePolicy := flag.String("cache-policy", "cost", "buffer-pool eviction policy: cost (bytes x transfer cost) or lru")
	repeat := flag.Int("repeat", 1, "run the query this many times on one engine (with -cache, later runs hit the pool)")
	fuse := flag.Bool("fuse", false, "rewrite fusible filter/map/aggregate chains into single-pass fused kernels before executing")
	auto := flag.Bool("auto", false, "auto-plan: rehearse the query under every execution model on fresh instances of the plugged devices and run the fastest cell (-model/-chunk become hints it overrides)")
	shards := flag.Int("shards", 1, "scatter the query over N independent runtime shards and gather exact merged results (1 = off)")
	hedge := flag.Bool("hedge", false, "with -shards, hedge straggling partitions: duplicate them in virtual time on the shard that frees up first, earlier completion wins")
	profileOn := flag.Bool("profile", false, "fold every run into the fleet profiler and print the per-shape resource ledger")
	sloSpec := flag.String("slo", "", "latency SLO as target:objective, e.g. 100ms:0.99 (implies -profile; with -serve, enables /slo burn tracking)")
	tenant := flag.String("tenant", "", "tenant label for profiler attribution")
	flag.Parse()

	model, err := parseModel(*modelName)
	if err != nil {
		return err
	}
	if *shards > 1 && *auto {
		return fmt.Errorf("-shards cannot be combined with -auto (the cost catalog is per-runtime)")
	}
	sloTarget, sloObjective, err := parseSLO(*sloSpec)
	if err != nil {
		return err
	}
	if sloTarget > 0 {
		*profileOn = true
	}

	if *serveAddr != "" {
		chunkElems := *chunk
		if chunkElems <= 0 {
			chunkElems = int(float64(int64(1)<<25) * *ratio)
			if chunkElems < 1024 {
				chunkElems = 1024
			}
		}
		return serve(ctx, *serveAddr, serveConfig{
			q: *q, sqlText: *sqlText, sf: *sf, ratio: *ratio, seed: *seed,
			driver: *driver, fallback: *fallback, model: model,
			chunkElems: chunkElems, faults: *faults, retries: *retries,
			deadline: *deadline, adapt: *adapt, warm: *warm,
			cacheMiB: *cacheMiB, cachePolicy: *cachePolicy,
			sloTarget: sloTarget, sloObjective: sloObjective, tenant: *tenant,
		})
	}

	ds, err := tpch.Generate(tpch.Config{SF: *sf, Ratio: *ratio, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("TPC-H SF%g (ratio %.5f): lineitem=%d orders=%d customer=%d rows\n",
		*sf, *ratio, ds.Lineitem.Rows(), ds.Orders.Rows(), ds.Customer.Rows())

	var plan *fault.Plan
	if *faults != "" {
		plan, err = fault.ParsePlan(*faults)
		if err != nil {
			return err
		}
	}

	rt := hub.NewRuntime()
	dev, err := buildDevice(*driver)
	if err != nil {
		return err
	}
	if plan != nil && plan.AppliesTo(dev.Info().Name) {
		dev = fault.Wrap(dev, plan)
	}
	id, err := rt.Register(dev)
	if err != nil {
		return err
	}
	candidates := []cost.Candidate{{ID: id, New: rehearsalMaker(*driver)}}
	fmt.Printf("device: %s\n", dev.Info().Name)
	if plan != nil {
		fmt.Printf("faults: %s\n", *faults)
	}

	var fallbackID *device.ID
	if *fallback != "" {
		fdev, err := buildDevice(*fallback)
		if err != nil {
			return err
		}
		if plan != nil && plan.AppliesTo(fdev.Info().Name) {
			fdev = fault.Wrap(fdev, plan)
		}
		fid, err := rt.Register(fdev)
		if err != nil {
			return err
		}
		fallbackID = &fid
		candidates = append(candidates, cost.Candidate{ID: fid, New: rehearsalMaker(*fallback)})
		fmt.Printf("fallback: %s\n", fdev.Info().Name)
	}

	var events *device.EventLog
	if *timeline {
		inner := dev
		if inj, ok := inner.(*fault.Injector); ok {
			inner = inj.Inner()
		}
		if sim, ok := inner.(*device.Sim); ok {
			events = &device.EventLog{}
			sim.SetEventLog(events)
		}
	}

	var g *graph.Graph
	var ast *sql.Query
	if *sqlText != "" {
		ast, err = sql.Parse(*sqlText)
		if err != nil {
			return err
		}
		g, err = sql.Plan(ast, sql.PlanConfig{Catalog: ds.Catalog(), Device: id})
		if err != nil {
			return err
		}
		*q = "SQL"
	} else {
		g, err = tpch.BuildQuery(*q, ds, id)
		if err != nil {
			return err
		}
	}

	// With -shards the coordinator fuses per partition graph instead, so
	// the scatter planner sees the un-fused plan.
	if *fuse && *shards <= 1 {
		g = graph.Fuse(g)
	}

	if *explain {
		pipelines, err := g.BuildPipelines()
		if err != nil {
			return err
		}
		fmt.Println("\nplan:")
		graph.WriteExplain(os.Stdout, g, pipelines, "  ")
	}

	chunkElems := *chunk
	if chunkElems <= 0 {
		chunkElems = int(float64(int64(1)<<25) * *ratio)
		if chunkElems < 1024 {
			chunkElems = 1024
		}
	}
	var autoDec *cost.Decision
	if *auto {
		autoDec, err = cost.NewPlanner(cost.New()).Plan(g, rt, cost.PlanOptions{Candidates: candidates})
		if err != nil {
			return err
		}
		model = autoDec.Model
		chunkElems = autoDec.ChunkElems
		fmt.Printf("auto plan: model=%v chunk=%d device=%s (predicted %v, %d cells rehearsed)\n",
			autoDec.Model, autoDec.ChunkElems, autoDec.Driver, autoDec.Predicted, autoDec.Rehearsals)
		for _, n := range autoDec.Notes {
			fmt.Printf("  plan       %s\n", n)
		}
	}
	var rec *trace.Recorder
	if *analyze || *traceOut != "" || *profileOn {
		rec = trace.NewRecorder()
	}
	var prof *profile.Profiler
	if *profileOn {
		prof = profile.New(profile.Config{})
		if sloTarget > 0 {
			prof.SetSLO(profile.NewSLO(profile.SLOConfig{
				Target:    vclock.DurationOf(sloTarget),
				Objective: sloObjective,
			}))
		}
	}
	var pool *bufpool.Manager
	if *cacheMiB > 0 {
		pol, err := bufpool.ParsePolicy(*cachePolicy)
		if err != nil {
			return err
		}
		pool = bufpool.New(bufpool.Config{
			Capacity: *cacheMiB << 20,
			Policy:   pol,
			Device:   rt.Device,
		})
		fmt.Printf("cache: %d MiB buffer pool, %s eviction\n", *cacheMiB, *cachePolicy)
	}
	opts := exec.Options{
		Model:            model,
		ChunkElems:       chunkElems,
		Recorder:         rec,
		Retry:            exec.RetryPolicy{MaxRetries: *retries},
		FallbackDevice:   fallbackID,
		AdaptiveChunking: *adapt,
		Deadline:         vclock.DurationOf(*deadline),
		Pool:             pool,
	}
	if autoDec != nil {
		opts.PlanNotes = autoDec.Notes
		opts.Replan = autoDec.Replan()
	}
	var coord *shard.Coordinator
	if *shards > 1 {
		coord, err = buildFleet(rt, pool, plan, fleetConfig{
			n: *shards, driver: *driver, fallback: *fallback,
			cacheMiB: *cacheMiB, cachePolicy: *cachePolicy,
			fuse: *fuse, hedge: *hedge,
		})
		if err != nil {
			return err
		}
		fmt.Printf("shards: %d runtimes, hedging %v\n", *shards, *hedge)
	}
	if *repeat < 1 {
		*repeat = 1
	}
	shape := graph.Fingerprint(g)
	var res *exec.Result
	var profVT vclock.Time
	for i := 0; i < *repeat; i++ {
		mark := rec.Len()
		if coord != nil {
			var scattered bool
			res, scattered, err = coord.Run(ctx, g, opts, 0)
			if err == nil && !scattered {
				fmt.Println("scatter planner declined the plan; running unsharded")
				coord = nil
				res, err = exec.RunContext(ctx, rt, g, opts)
			}
		} else {
			res, err = exec.RunContext(ctx, rt, g, opts)
		}
		if prof != nil {
			qrec := profile.QueryRecord{
				Query: uint64(i + 1), Shape: shape, Tenant: *tenant,
				Device: dev.Info().Name, Model: model.String(),
				Err: err != nil, Spans: rec.Spans()[mark:],
			}
			if res != nil {
				s := res.Stats
				profVT += vclock.Time(s.Elapsed)
				qrec.VT = profVT
				qrec.Elapsed = s.Elapsed
				qrec.KernelTime = s.KernelTime
				qrec.TransferTime = s.TransferTime
				qrec.OverheadTime = s.OverheadTime
				qrec.H2DBytes = s.H2DBytes
				qrec.D2HBytes = s.D2HBytes
				qrec.Launches = s.Launches
				qrec.Retries = s.Retries
				qrec.Replans = s.Replans
			}
			anomalies, alerts := prof.Observe(qrec)
			for _, a := range anomalies {
				fmt.Printf("anomaly: %s on %s bucket %d measured %.1f ns/unit vs expected %.1f (%.1fx)\n",
					a.Primitive, a.Driver, a.Bucket, a.Measured, a.Expected, a.Factor)
			}
			for _, al := range alerts {
				fmt.Printf("slo burn: %s window at %.2f (%d/%d bad)\n", al.Window, al.Burn, al.Bad, al.Total)
			}
		}
		if err != nil {
			break
		}
		if *repeat > 1 {
			fmt.Printf("run %d/%d: simulated %v\n", i+1, *repeat, res.Stats.Elapsed)
		}
	}
	cancelled := errors.Is(err, context.Canceled)
	if err != nil && !(cancelled && res != nil) {
		return err
	}
	if ast != nil && !cancelled {
		if err := sql.PostProcess(res, ast); err != nil {
			return err
		}
	}

	s := res.Stats
	if cancelled {
		fmt.Printf("\ninterrupted — query cancelled at a chunk boundary; partial timings:\n")
	}
	fmt.Printf("\n%s under %v (chunk %d values):\n", *q, model, chunkElems)
	fmt.Printf("  simulated  %v   (kernels %v, transfers %v, overhead %v)\n",
		s.Elapsed, s.KernelTime, s.TransferTime, s.OverheadTime)
	fmt.Printf("  wall       %v\n", s.Wall)
	fmt.Printf("  moved      %.1f MiB H2D, %.1f MiB D2H over %d chunks, %d pipelines\n",
		float64(s.H2DBytes)/(1<<20), float64(s.D2HBytes)/(1<<20), s.Chunks, s.Pipelines)
	fmt.Printf("  peak mem   %.1f MiB device\n", float64(s.PeakDeviceBytes)/(1<<20))
	if s.Retries > 0 {
		fmt.Printf("  retries    %d transient faults retried\n", s.Retries)
	}
	if s.Replans > 0 {
		fmt.Printf("  replans    %d mid-query re-plan restarts\n", s.Replans)
	}
	if pool != nil {
		cs := pool.Stats()
		fmt.Printf("  cache      %d hits, %d misses, %d shared joins, %d evictions (%.0f%% hits, %.1f MiB resident)\n",
			cs.Hits, cs.Misses, cs.SharedJoins, cs.Evictions,
			100*cs.HitRatio(), float64(cs.CachedBytes)/(1<<20))
	}
	for p, ss := range s.Shards {
		var flags string
		if ss.Hedged {
			flags += ", hedged"
			if ss.HedgeWon {
				flags += " (hedge won)"
			}
		}
		if ss.FailedOver {
			flags += ", failed over"
		}
		if ss.Lost {
			flags += ", LOST"
		}
		fmt.Printf("  shard      partition %d on shard %d: %d rows, %v%s\n",
			p, ss.Ran, ss.Rows, ss.Elapsed, flags)
	}
	if len(s.PartialShards) > 0 {
		fmt.Printf("  partial    result excludes lost partitions %v\n", s.PartialShards)
	}
	for _, ev := range s.Events {
		fmt.Printf("  event      %s\n", ev)
	}

	if *analyze {
		pipelines, err := g.BuildPipelines()
		if err != nil {
			return err
		}
		fmt.Println()
		exec.WriteAnalyze(os.Stdout, g, pipelines, s, rec.Spans())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, rec.Spans()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\ntrace: %d spans written to %s\n", rec.Len(), *traceOut)
	}
	if *metrics {
		m := trace.NewMetrics()
		var failovers int64
		for _, ev := range s.Events {
			if ev.Kind == exec.EventFailover {
				failovers++
			}
		}
		m.ObserveQuery(trace.QueryStats{
			Elapsed: s.Elapsed, KernelTime: s.KernelTime,
			TransferTime: s.TransferTime, OverheadTime: s.OverheadTime,
			H2DBytes: s.H2DBytes, D2HBytes: s.D2HBytes, Launches: s.Launches,
			Chunks: s.Chunks, Pipelines: s.Pipelines,
			Retries: s.Retries, Failovers: failovers, Err: cancelled,
		})
		var devRows []trace.DeviceRow
		for _, d := range rt.Devices() {
			st := d.Stats()
			devRows = append(devRows, trace.DeviceRow{
				Name: d.Info().Name, Launches: st.Launches,
				KernelTime: st.KernelTime, TransferTime: st.TransferTime,
				OverheadTime: st.OverheadTime,
				H2DBytes:     st.H2DBytes, D2HBytes: st.D2HBytes,
			})
		}
		fmt.Println("\nmetrics:")
		m.WriteSnapshot(os.Stdout, devRows)
	}

	if prof != nil {
		fmt.Println("\nprofile:")
		prof.WriteReport(os.Stdout)
	}

	if events != nil {
		fmt.Println("\nengine timelines:")
		device.RenderTimeline(os.Stdout, events.Events(), 100)
	}

	if cancelled {
		return nil
	}
	fmt.Println("\nresults:")
	for _, col := range res.Columns {
		fmt.Printf("  %-16s %d rows\n", col.Name, col.Data.Len())
	}
	if len(res.Columns) > 0 {
		n := res.Columns[0].Data.Len()
		if n > *maxRows {
			n = *maxRows
		}
		for i := 0; i < n; i++ {
			fmt.Printf("  [%d]", i)
			for _, col := range res.Columns {
				switch {
				case col.Data.Len() <= i:
					fmt.Printf("  %s=-", col.Name)
				case col.Data.Type().String() == "int32":
					fmt.Printf("  %s=%d", col.Name, col.Data.I32()[i])
				default:
					fmt.Printf("  %s=%d", col.Name, col.Data.I64()[i])
				}
			}
			fmt.Println()
		}
	}
	return nil
}

// fleetConfig configures buildFleet.
type fleetConfig struct {
	n                int
	driver, fallback string
	cacheMiB         int64
	cachePolicy      string
	fuse, hedge      bool
}

// buildFleet assembles the shard coordinator: shard 0 reuses the runtime
// already built (device, fault wrap and pool included); shards 1..n-1 get
// fresh runtimes with the same device layout, fault plans re-seeded per
// shard so they fault independently.
func buildFleet(rt *hub.Runtime, pool *bufpool.Manager, plan *fault.Plan, fc fleetConfig) (*shard.Coordinator, error) {
	list := make([]shard.Shard, fc.n)
	list[0] = shard.Shard{Name: "shard0", RT: rt, Pool: pool}
	for s := 1; s < fc.n; s++ {
		srt := hub.NewRuntime()
		splan := plan
		if plan != nil {
			p := *plan
			p.Seed += uint64(s)
			splan = &p
		}
		register := func(driver string) error {
			dev, err := buildDevice(driver)
			if err != nil {
				return err
			}
			if splan != nil && splan.AppliesTo(dev.Info().Name) {
				dev = fault.Wrap(dev, splan)
			}
			_, err = srt.Register(dev)
			return err
		}
		if err := register(fc.driver); err != nil {
			return nil, err
		}
		if fc.fallback != "" {
			if err := register(fc.fallback); err != nil {
				return nil, err
			}
		}
		var spool *bufpool.Manager
		if fc.cacheMiB > 0 {
			pol, err := bufpool.ParsePolicy(fc.cachePolicy)
			if err != nil {
				return nil, err
			}
			spool = bufpool.New(bufpool.Config{
				Capacity: fc.cacheMiB << 20,
				Policy:   pol,
				Device:   srt.Device,
			})
		}
		list[s] = shard.Shard{Name: fmt.Sprintf("shard%d", s), RT: srt, Pool: spool}
	}
	cfg := shard.Config{Shards: list}
	if fc.fuse {
		cfg.Rewrite = graph.Fuse
	}
	if fc.hedge {
		cfg.Hedge = shard.HedgePolicy{Enabled: true}
	}
	return shard.New(cfg)
}

// rehearsalMaker returns a constructor for fresh, unwrapped instances of a
// driver already built once, for the auto planner's rehearsals; buildDevice
// accepted the name then, so its error is dropped.
func rehearsalMaker(driver string) func() device.Device {
	return func() device.Device {
		d, _ := buildDevice(driver)
		return d
	}
}

func buildDevice(driver string) (device.Device, error) {
	switch driver {
	case "cuda":
		return simcuda.New(&simhw.RTX2080Ti, nil), nil
	case "opencl-gpu":
		return simopencl.NewGPU(&simhw.RTX2080Ti, nil), nil
	case "opencl-cpu":
		return simopencl.NewCPU(&simhw.CoreI78700, nil), nil
	case "openmp":
		return simomp.New(&simhw.CoreI78700, nil), nil
	default:
		return nil, fmt.Errorf("unknown driver %q", driver)
	}
}

// parseSLO parses the -slo flag's "target:objective" form, e.g.
// "100ms:0.99". An empty spec disables the SLO; a bare duration defaults
// the objective to 0.99.
func parseSLO(spec string) (time.Duration, float64, error) {
	if spec == "" {
		return 0, 0, nil
	}
	durText, objText := spec, ""
	if at := strings.LastIndex(spec, ":"); at >= 0 {
		durText, objText = spec[:at], spec[at+1:]
	}
	target, err := time.ParseDuration(durText)
	if err != nil {
		return 0, 0, fmt.Errorf("bad -slo target %q: %w", durText, err)
	}
	objective := 0.99
	if objText != "" {
		objective, err = strconv.ParseFloat(objText, 64)
		if err != nil || objective <= 0 || objective >= 1 {
			return 0, 0, fmt.Errorf("bad -slo objective %q (want a fraction in (0,1))", objText)
		}
	}
	return target, objective, nil
}

func parseModel(name string) (exec.Model, error) {
	switch name {
	case "oaat":
		return exec.OperatorAtATime, nil
	case "chunked":
		return exec.Chunked, nil
	case "pipelined":
		return exec.Pipelined, nil
	case "4p-chunked":
		return exec.FourPhaseChunked, nil
	case "4p-pipelined":
		return exec.FourPhasePipelined, nil
	default:
		return 0, fmt.Errorf("unknown model %q", name)
	}
}
