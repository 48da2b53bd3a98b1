package main

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// families groups kernels by the primitive they implement; every built-in
// kernel name matches exactly one prefix of exactly one family.
var families = []struct {
	name     string
	prefixes []string
}{
	{"filter", []string{"filter_", "bitmap_"}},
	{"materialize", []string{"materialize_", "prefix_sum_"}},
	{"map", []string{"map_", "fill_"}},
	{"agg", []string{"agg_", "sort_agg_"}},
	{"hash_build", []string{"hash_build_", "hash_table_init"}},
	{"hash_probe", []string{"hash_probe_"}},
	{"hash_agg", []string{"hash_agg_", "hash_extract"}},
	{"fused", []string{"fused_"}},
}

// familiesOf lists the families a kernel name matches; the test holds it
// to one for every built-in.
func familiesOf(kernel string) []string {
	var out []string
	for _, f := range families {
		for _, p := range f.prefixes {
			if strings.HasPrefix(kernel, p) {
				out = append(out, f.name)
			}
		}
	}
	return out
}

// traceBlocks is how many blocks each engine's share of a traced run is
// cut into. The blocks of the three engines alternate, so slow drift of
// the machine falls on all three alike.
const traceBlocks = 4

// opTrace observes the traced engine's ops: it opens and closes the op
// span and follows each op with a front-end pass.
type opTrace struct {
	tr      *tracer
	fe      *frontend
	queries []query
	err     error // first front-end error; only client 0 writes it
}

func (o *opTrace) beginOp(client int) { o.tr.beginOp(client) }

func (o *opTrace) endOp(client int, op opResult) {
	o.tr.endOp(client, op)
	if err := o.fe.pass(o.queries); err != nil && client == 0 && o.err == nil {
		o.err = err
	}
}

// runTraced is the traced run: it reports where an op's wall time goes.
// Three engines over the same data take turns in short blocks: the
// workload's own (the untraced reference), the same engine on the timing
// device, and the same engine with observability flipped.
func runTraced(cfg *runConfig) (*report, error) {
	w := cfg.w
	ds, raw, err := w.generate(cfg.seed, cfg.quick)
	if err != nil {
		return nil, err
	}
	tr := newTracer(w.numClients())
	plain, err := w.newTarget(ds, w.observed, plugStock)
	if err != nil {
		return nil, err
	}
	traced, err := w.newTarget(ds, w.observed, plugTimed(tr))
	if err != nil {
		return nil, err
	}
	flipped, err := w.newTarget(ds, !w.observed, plugStock)
	if err != nil {
		return nil, err
	}

	rep := &report{}
	for _, t := range []*target{plain, traced, flipped} {
		rep.count(drive(t, cfg.warmup(), nil))
	}
	memcpy := memcpyGBps()

	tr.record(true)
	obs := &opTrace{tr: tr, fe: newFrontend(traced, raw), queries: w.queries}
	block := cfg.measured(1.0 / (3 * traceBlocks))
	var plainS, tracedS, flippedS samples
	var host hostUse
	for b := 0; b < traceBlocks; b++ {
		plainS.merge(drive(plain, block, nil))
		before := readHost()
		tracedS.merge(drive(traced, block, obs))
		host.add(readHost().since(before))
		flippedS.merge(drive(flipped, block, nil))
	}
	tr.record(false)
	if obs.err != nil {
		return nil, obs.err
	}
	for _, s := range []*samples{&plainS, &tracedS, &flippedS} {
		rep.count(s)
	}
	if cfg.out != "" {
		if err := tr.write(cfg.out, w.name); err != nil {
			return nil, err
		}
	}

	ops := float64(tracedS.attempted())
	fold := foldSpans(tr)
	perOpMS := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	perOp := func(n int64) float64 { return float64(n) / ops }
	gbps := func(bytes, ns int64) float64 { return ratio(float64(bytes), float64(ns)) } // bytes per ns is GB/s

	fe := obs.fe
	rep.set("sql.parse_us", "us", fe.perPassUS(fe.parseT))
	rep.set("sql.plan_us", "us", fe.perPassUS(fe.planT))
	rep.set("sql.postprocess_us", "us", fe.perPassUS(fe.postprocessT))
	rep.set("graph.fuse_us", "us", fe.perPassUS(fe.fuseT))
	rep.set("graph.fingerprint_us", "us", fe.perPassUS(fe.fingerprintT))
	rep.set("graph.pipelines_us", "us", fe.perPassUS(fe.pipelinesT))
	rep.set("graph.nodes", "count", ratio(float64(fe.nodes), float64(fe.passes)))
	rep.set("exec.estimate_us", "us", fe.perPassUS(fe.estimateT))
	rep.set("session.admit_us", "us", fe.perPassUS(fe.admitT))
	adm := traced.eng.AdmissionStats()
	rep.set("session.waited_share", "ratio", ratio(float64(adm.Waited), float64(adm.Admitted)))

	device := fold.deviceNS()
	self := fold.opSelfNS - fold.unparentedNS
	rep.set("engine.self_ms", "ms", perOpMS(self))
	rep.set("engine.self_share", "ratio", ratio(float64(self), float64(fold.opNS)))
	rep.set("exec.chunks", "count", perOp(tracedS.exec.chunks))
	rep.set("exec.launches", "count", perOp(tracedS.exec.launches))
	rep.set("exec.pipelines", "count", perOp(tracedS.exec.pipelines))
	rep.set("exec.retries", "count", perOp(tracedS.exec.retries))
	rep.set("exec.host_us_per_launch", "us", ratio(float64(self)/1e3, float64(tracedS.exec.launches)))

	exe, h2d, d2h := fold.groups["execute"], fold.groups["h2d"], fold.groups["d2h"]
	rep.set("device.execute_ms", "ms", perOpMS(exe.ns))
	rep.set("device.execute_calls", "count", perOp(exe.calls))
	rep.set("device.h2d_ms", "ms", perOpMS(h2d.ns))
	rep.set("device.h2d_calls", "count", perOp(h2d.calls))
	rep.set("device.h2d_mb", "MB", perOp(h2d.bytes)/mb)
	rep.set("device.h2d_gbps", "GB/s", gbps(h2d.bytes, h2d.ns))
	rep.set("device.d2h_ms", "ms", perOpMS(d2h.ns))
	rep.set("device.d2h_mb", "MB", perOp(d2h.bytes)/mb)
	rep.set("device.other_ms", "ms", perOpMS(fold.groups["other"].ns))
	rep.set("device.share", "ratio", ratio(float64(device), float64(fold.opNS)))
	rep.set("device.virtual_kernel_ms", "ms", ms(tracedS.exec.kernel)/ops)
	rep.set("device.virtual_transfer_ms", "ms", ms(tracedS.exec.transfer)/ops)
	rep.set("device.virtual_overhead_ms", "ms", ms(tracedS.exec.overhead)/ops)
	rep.set("device.peak_mb", "MB", float64(tracedS.exec.peakBytes)/mb)

	alloc, free := fold.groups["alloc"], fold.groups["free"]
	rep.set("devmem.alloc_ms", "ms", perOpMS(alloc.ns))
	rep.set("devmem.alloc_calls", "count", perOp(alloc.calls))
	rep.set("devmem.alloc_mb", "MB", perOp(alloc.bytes)/mb)
	rep.set("devmem.free_ms", "ms", perOpMS(free.ns))
	rep.set("devmem.free_calls", "count", perOp(free.calls))

	for _, f := range families {
		k := fold.families[f.name]
		rep.set("kernels."+f.name+"_ms", "ms", perOpMS(k.ns))
		rep.set("kernels."+f.name+"_gbps", "GB/s", gbps(k.bytes, k.ns))
		rep.set("kernels."+f.name+"_roofline", "ratio", gbps(k.bytes, k.ns)/memcpy)
	}

	cache := traced.eng.CacheStats()
	rep.set("bufpool.hit_ratio", "ratio", cache.HitRatio())
	rep.set("bufpool.cached_mb", "MB", float64(cache.CachedBytes)/mb)
	rep.set("bufpool.evictions", "count", float64(cache.Evictions))

	on, off := median(plainS.wallMS), median(flippedS.wallMS)
	if !w.observed {
		on, off = off, on
	}
	rep.set("observe.overhead_share", "ratio", ratio(on, off)-1)

	rep.set("host.memcpy_gbps", "GB/s", memcpy)
	rep.set("host.gc_cycles", "count", perOp(host.gcCycles))
	rep.set("host.gc_pause_ms", "ms", perOpMS(host.gcPauseNS))
	rep.set("host.gc_cpu_share", "ratio", ratio(host.gcCPU, host.cpu))
	rep.set("host.peak_rss_mb", "MB", peakRSSMB())
	rep.set("host.nproc", "count", float64(runtime.NumCPU()))
	rep.set("host.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))

	rep.set("trace_overhead_share", "ratio", ratio(median(tracedS.wallMS), median(plainS.wallMS))-1)
	rep.set("drift_share", "ratio", driftShare(tracedS.wallMS))

	rep.notef("%s seed %d traced: %d traced ops, %d spans, %d untraced and %d flipped-observability ops alongside",
		w.name, cfg.seed, tracedS.attempted(), tr.n, plainS.attempted(), flippedS.attempted())
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// busy is the time, calls and bytes of one group of spans.
type busy struct{ ns, calls, bytes int64 }

func (b *busy) add(s span) {
	b.ns += s.dur()
	b.calls++
	b.bytes += s.bytes
}

// spanFold is every span of a traced run, summed by what it timed.
type spanFold struct {
	groups   map[string]*busy // device spans by calls[].group
	families map[string]*busy // Execute spans by kernel family
	// opNS is the summed op spans, opSelfNS their self time against the
	// device spans parented to them, unparentedNS the device spans that
	// belong to the run because the caller's op is unknown.
	opNS, opSelfNS, unparentedNS int64
}

func (f *spanFold) deviceNS() int64 {
	var ns int64
	for _, g := range f.groups {
		ns += g.ns
	}
	return ns
}

// foldSpans sums a run's spans. An op's children are recorded right after
// it, so one pass in recording order can close each op when the next
// opens. (Concurrent ops have no children: their device spans belong to
// the run.)
func foldSpans(tr *tracer) *spanFold {
	f := &spanFold{groups: make(map[string]*busy), families: make(map[string]*busy)}
	for _, c := range calls[callOp+1:] {
		f.groups[c.group] = &busy{}
	}
	for _, fam := range families {
		f.families[fam.name] = &busy{}
	}
	familyOf := make([]string, len(tr.kernels))
	for i, name := range tr.kernels {
		if fams := familiesOf(name); len(fams) > 0 {
			familyOf[i] = fams[0]
		}
	}

	var op int32 = runSpan
	var kids []span
	closeOp := func() {
		if op != runSpan {
			s := *tr.at(op)
			f.opNS += s.dur()
			f.opSelfNS += selfNS(s, kids)
		}
		kids = kids[:0]
	}
	tr.each(func(id int32, s span) {
		if s.call == callOp {
			closeOp()
			op = id
			return
		}
		f.groups[calls[s.call].group].add(s)
		if fam := f.families[familyOf[s.kernel]]; fam != nil {
			fam.add(s)
		}
		if s.parent == runSpan {
			f.unparentedNS += s.dur()
		} else {
			kids = append(kids, s)
		}
	})
	closeOp()
	return f
}

// memcpyGBps is the host's copy bandwidth, the roofline kernel throughput
// is reported against: a 64 MiB copy, best of five.
func memcpyGBps() float64 {
	src, dst := make([]byte, 64<<20), make([]byte, 64<<20)
	src[0] = 1 // touch every source page, or reads hit the shared zero page
	for n := 1; n < len(src); n *= 2 {
		copy(src[n:], src[:n])
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		start := time.Now()
		copy(dst, src)
		best = min(best, time.Since(start))
	}
	return float64(len(src)) / float64(best)
}

// hostUse is the Go runtime's account of the traced blocks.
type hostUse struct {
	gcCycles, gcPauseNS int64
	gcCPU, cpu          float64 // CPU-seconds: the collector's, and all that was not idle
}

func (h *hostUse) add(o hostUse) {
	h.gcCycles += o.gcCycles
	h.gcPauseNS += o.gcPauseNS
	h.gcCPU += o.gcCPU
	h.cpu += o.cpu
}

func (h hostUse) since(before hostUse) hostUse {
	return hostUse{
		gcCycles: h.gcCycles - before.gcCycles, gcPauseNS: h.gcPauseNS - before.gcPauseNS,
		gcCPU: h.gcCPU - before.gcCPU, cpu: h.cpu - before.cpu,
	}
}

func readHost() hostUse {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(cpu)
	return hostUse{
		gcCycles: int64(ms.NumGC), gcPauseNS: int64(ms.PauseTotalNs),
		gcCPU: cpu[0].Value.Float64(), cpu: cpu[1].Value.Float64() - cpu[2].Value.Float64(),
	}
}

// peakRSSMB is the process's resident-set high-water mark. Linux reports
// it in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
