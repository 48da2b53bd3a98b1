package adamant

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The chaos soak: a wall-clock-bounded storm of randomized engines, plans,
// fault schedules, deadlines, and cancellations running concurrently. The
// invariant is the same as the differential harness's, under concurrency:
// every query either succeeds or fails with an acceptable typed error,
// device memory always returns to baseline, and no goroutines leak.

// chaosAcceptable reports whether err is an outcome the resilience layer is
// allowed to produce under injected chaos.
func chaosAcceptable(err error) bool {
	if err == nil {
		return true
	}
	var lost *DeviceLostError
	return errors.Is(err, ErrInjected) ||
		errors.Is(err, ErrAdmission) ||
		errors.Is(err, ErrDeadline) ||
		errors.As(err, &lost) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

func TestChaosSoak(t *testing.T) {
	const (
		soak     = 2 * time.Second
		perRound = 6 // concurrent queries per engine round
	)
	baseGoroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(0xC0FFEE))
	start := time.Now()
	var rounds, queries int

	for time.Since(start) < soak {
		rounds++
		drv := harnessDrivers[rng.Intn(len(harnessDrivers))]
		plan := harnessFaultPlan(rng.Intn(1000), drv)
		eng := NewEngine(
			WithFaultPlan(plan),
			WithRetryPolicy(RetryPolicy{MaxRetries: 2}),
			WithFallbackDevice(DeviceID(1)),
			WithAdaptiveChunking(64),
			WithHealthPolicy(HealthPolicy{}),
			WithMaxConcurrent(2),
		)
		if _, err := eng.Plug(drv.hw, drv.sdk); err != nil {
			t.Fatalf("plug %s: %v", drv.name, err)
		}
		if _, err := eng.Plug(drv.fbHW, drv.fbSDK); err != nil {
			t.Fatalf("plug fallback: %v", err)
		}

		var wg sync.WaitGroup
		for q := 0; q < perRound; q++ {
			seed := rng.Int63n(1 << 20)
			model := harnessModels[rng.Intn(len(harnessModels))]
			opts := ExecOptions{Model: model, ChunkElems: 256}
			if rng.Intn(3) == 0 {
				// A tight virtual deadline: some of these shed or trip.
				opts.Deadline = time.Duration(1+rng.Intn(500)) * time.Microsecond
			}
			ctx, cancel := context.WithCancel(context.Background())
			if rng.Intn(4) == 0 {
				// A racing canceller, sometimes before the query even starts.
				delay := time.Duration(rng.Intn(300)) * time.Microsecond
				time.AfterFunc(delay, cancel)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer cancel()
				p := buildHarnessPlan(eng, seed)
				if _, err := eng.ExecuteContext(ctx, p, opts); !chaosAcceptable(err) {
					t.Errorf("chaos: unacceptable error: %v", err)
				}
			}()
			queries++
		}
		wg.Wait()
		checkMemBaseline(t, eng, "chaos round")
	}

	// Everything launched above must have unwound: allow the runtime a
	// moment to retire exiting goroutines, then compare against the
	// pre-soak count.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+2 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak: %d before soak, %d after\n%s",
			baseGoroutines, n, buf[:runtime.Stack(buf, true)])
	}
	t.Logf("chaos soak: %d rounds, %d queries in %v", rounds, queries, time.Since(start).Round(time.Millisecond))
}

// shardChaosAcceptable adds the shard-loss sentinel to the acceptable
// outcomes: a scattered query that cannot recover a partition surfaces
// ErrShardLost instead of a device-level loss.
func shardChaosAcceptable(err error) bool {
	return chaosAcceptable(err) || errors.Is(err, ErrShardLost)
}

// TestShardChaosSoak is the scatter/gather concurrency soak: randomized
// sharded engines (fleet size, hedging, loss mode, fault schedules) run
// storms of concurrent queries with racing cancellers and tight deadlines.
// Hedged duplicates, failovers and losses must only ever produce a
// baseline answer, an explicitly flagged partial, or a typed error — and
// after each round, memory returns to baseline on every shard with no
// goroutine leak.
func TestShardChaosSoak(t *testing.T) {
	const (
		soak     = 2 * time.Second
		perRound = 6
	)
	baseGoroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(0x5AAD))
	start := time.Now()
	var rounds, queries int

	for time.Since(start) < soak {
		rounds++
		drv := harnessDrivers[rng.Intn(len(harnessDrivers))]
		plan := harnessFaultPlan(rng.Intn(1000), drv)
		opts := []EngineOption{
			WithShards(2 + rng.Intn(5)),
			WithFaultPlan(plan),
			WithRetryPolicy(RetryPolicy{MaxRetries: 2}),
			WithFallbackDevice(DeviceID(1)),
			WithAdaptiveChunking(64),
			WithHealthPolicy(HealthPolicy{}),
			WithMaxConcurrent(2),
		}
		if rng.Intn(2) == 0 {
			opts = append(opts, WithShardHedging(ShardHedgePolicy{}))
		}
		if rng.Intn(2) == 0 {
			opts = append(opts, WithShardLoss(ShardLossPartial))
		}
		if rng.Intn(3) == 0 {
			opts = append(opts, WithShardFailovers(rng.Intn(3)-1))
		}
		eng := NewEngine(opts...)
		if _, err := eng.Plug(drv.hw, drv.sdk); err != nil {
			t.Fatalf("plug %s: %v", drv.name, err)
		}
		if _, err := eng.Plug(drv.fbHW, drv.fbSDK); err != nil {
			t.Fatalf("plug fallback: %v", err)
		}

		var wg sync.WaitGroup
		for q := 0; q < perRound; q++ {
			seed := rng.Int63n(1 << 20)
			model := harnessModels[rng.Intn(len(harnessModels))]
			execOpts := ExecOptions{Model: model, ChunkElems: 256}
			if rng.Intn(3) == 0 {
				execOpts.Deadline = time.Duration(1+rng.Intn(500)) * time.Microsecond
			}
			ctx, cancel := context.WithCancel(context.Background())
			if rng.Intn(4) == 0 {
				delay := time.Duration(rng.Intn(300)) * time.Microsecond
				time.AfterFunc(delay, cancel)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer cancel()
				p := buildHarnessPlan(eng, seed)
				if _, err := eng.ExecuteContext(ctx, p, execOpts); !shardChaosAcceptable(err) {
					t.Errorf("shard chaos: unacceptable error: %v", err)
				}
			}()
			queries++
		}
		wg.Wait()
		checkShardMemBaseline(t, eng, "shard chaos round")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+2 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak: %d before soak, %d after\n%s",
			baseGoroutines, n, buf[:runtime.Stack(buf, true)])
	}
	t.Logf("shard chaos soak: %d rounds, %d queries in %v", rounds, queries, time.Since(start).Round(time.Millisecond))
}
