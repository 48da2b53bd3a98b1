package main

import (
	"sync"
	"time"

	"github.com/adamant-db/adamant"
)

// minMeasuredOps is the floor on measured ops per run: p95 needs ten
// samples beyond it.
const minMeasuredOps = 200

// extent is how long a stretch of load runs: at least ops per client, and
// until at least d has passed. Warm-up sets only ops; a measured phase
// sets both, so a slow commit still yields enough samples and a fast one
// still measures for the full time.
type extent struct {
	ops int
	d   time.Duration
}

// samples is what a stretch of closed-loop load produced, in completion
// order across clients.
type samples struct {
	wallMS    []float64
	virtualMS []float64
	exec      execCounts
	failed    int
	elapsed   time.Duration
}

func (s *samples) attempted() int { return len(s.wallMS) }

// drive runs closed-loop load against t: every client issues its next op
// only after the previous one returned. It returns when every client has
// finished its extent. The traced run passes obs to see each op begin,
// before its clock starts, and end, after its result is checked; the
// end-to-end run passes nil.
func drive(t *target, ext extent, obs *opTrace) *samples {
	clients := t.w.numClients()
	out := &samples{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			order := t.w.order(c)
			results := make([]*adamant.Result, len(order))
			for i := 0; i < ext.ops || time.Since(begin) < ext.d; i++ {
				if obs != nil {
					obs.beginOp(c)
				}
				op := t.do(order, results)
				if obs != nil {
					obs.endOp(c, op)
				}
				mu.Lock()
				out.wallMS = append(out.wallMS, ms(op.wall))
				out.virtualMS = append(out.virtualMS, ms(op.virtual))
				out.exec.add(op.exec)
				if op.failed {
					out.failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(begin)
	return out
}

// merge appends another stretch's samples; the traced run interleaves
// short blocks on several engines and folds each engine's blocks together.
func (s *samples) merge(o *samples) {
	s.wallMS = append(s.wallMS, o.wallMS...)
	s.virtualMS = append(s.virtualMS, o.virtualMS...)
	s.exec.add(o.exec)
	s.failed += o.failed
	s.elapsed += o.elapsed
}

// execCounts sums the executor's own exact counters (Result.Stats) over
// the ops of a stretch.
type execCounts struct {
	chunks, launches, pipelines, retries int64
	kernel, transfer, overhead           time.Duration
	peakBytes                            int64
}

func (e *execCounts) add(o execCounts) {
	e.chunks += o.chunks
	e.launches += o.launches
	e.pipelines += o.pipelines
	e.retries += o.retries
	e.kernel += o.kernel
	e.transfer += o.transfer
	e.overhead += o.overhead
	e.peakBytes = max(e.peakBytes, o.peakBytes)
}

func (e *execCounts) addStats(st adamant.Stats) {
	e.add(execCounts{
		chunks: int64(st.Chunks), launches: st.Launches, pipelines: int64(st.Pipelines), retries: st.Retries,
		kernel: st.KernelTime, transfer: st.TransferTime, overhead: st.OverheadTime,
		peakBytes: st.PeakDeviceBytes,
	})
}
