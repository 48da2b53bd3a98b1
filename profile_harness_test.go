package adamant

import (
	"bytes"
	"strings"
	"testing"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/telemetry"
)

// TestShardPartialEvent: a query completing without a lost partition under
// ShardLossPartial emits a shard_partial event carrying the query ID,
// virtual time, and the lost partition list.
func TestShardPartialEvent(t *testing.T) {
	drv := harnessDrivers[0]
	seed := pickScatteringSeed(t, drv, 4)

	eng := NewEngine(WithShards(4), WithShardFailovers(-1),
		WithShardLoss(ShardLossPartial), WithFaultPlan(shardKillPlan(drv))).
		WithTelemetry(TelemetryConfig{})
	if _, err := eng.Plug(drv.hw, drv.sdk); err != nil {
		t.Fatal(err)
	}
	killShard(t, eng, 2)
	res, err := eng.Execute(buildHarnessPlan(eng, seed), ExecOptions{Model: Chunked, ChunkElems: 256})
	if err != nil {
		t.Fatal(err)
	}
	if partial, _ := res.Partial(); !partial {
		t.Fatal("query did not come back partial")
	}
	totals := eng.EventTotals()
	if totals[string(telemetry.EventShardPartial)] != 1 {
		t.Fatalf("shard_partial events = %d, want 1 (totals %v)", totals[string(telemetry.EventShardPartial)], totals)
	}
	var b bytes.Buffer
	if err := eng.WriteEvents(&b); err != nil {
		t.Fatal(err)
	}
	events := b.String()
	if !strings.Contains(events, `"type":"shard_partial"`) {
		t.Errorf("event stream missing shard_partial:\n%s", events)
	}
	if !strings.Contains(events, "lost partitions [2]") {
		t.Errorf("shard_partial detail missing partition list:\n%s", events)
	}
}

// TestProfileShardStraggler is the braked-shard end-to-end: shard 3 of a
// four-shard fleet gets a device 16x slower than its peers in compute,
// kernel launch (small chunks are dominated by it) and links — same device
// name, so its spans anchor
// against the rate the healthy shards trained into the detector's catalog.
// The hot shard must show up in the per-shard utilization strip, the
// sustained rate deviation must fire a perf_anomaly event, and the
// straggling query's trace must be auto-retained in the flight recorder.
func TestProfileShardStraggler(t *testing.T) {
	braked := simhw.RTX2080Ti.Slowed(16)

	eng := NewEngine(WithShards(4)).
		WithTelemetry(TelemetryConfig{}).
		WithProfile(ProfileConfig{AnomalyFactor: 2, AnomalySustain: 2, AnomalyMinSamples: 1})
	var plugged int
	if _, err := eng.PlugMaker(func() device.Device {
		spec := &simhw.RTX2080Ti
		if plugged == 3 {
			spec = braked
		}
		plugged++
		return simcuda.New(spec, nil)
	}); err != nil {
		t.Fatal(err)
	}
	if plugged != 4 {
		t.Fatalf("constructor ran %d times, want once per shard", plugged)
	}

	// A Q6-shaped plan big enough that every partition runs dozens of
	// chunks: the braked shard's kernels deviate many times in a row, so
	// the sustain threshold is met before a healthy shard's compliant
	// observation can reset the streak.
	price := make([]int32, 32768)
	disc := make([]int32, len(price))
	for i := range price {
		price[i] = int32(i%900 + 100)
		disc[i] = int32(i % 11)
	}
	stragglerPlan := func() *Plan {
		plan := eng.NewPlan().On(DeviceID(0))
		p := plan.ScanInt32("price", price)
		d := plan.ScanInt32("disc", disc)
		keep := plan.FilterBetween(d, 5, 7)
		plan.Return("revenue", plan.SumInt64(plan.Mul(plan.Materialize(p, keep), plan.Materialize(d, keep))))
		return plan
	}

	opts := ExecOptions{Model: Chunked, ChunkElems: 256}
	for i := 0; i < 5; i++ {
		res, err := eng.Execute(stragglerPlan(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.ShardStats() == nil {
			t.Fatal("query did not scatter")
		}
	}

	// The hot shard appears as its own row in the utilization strip.
	var strip bytes.Buffer
	eng.WriteUtilization(&strip)
	if !strings.Contains(strip.String(), "shard3:") {
		t.Errorf("utilization strip lacks the braked shard's row:\n%s", strip.String())
	}

	// The sustained 16x rate deviation fired at least one perf_anomaly.
	totals := eng.EventTotals()
	if totals[string(telemetry.EventPerfAnomaly)] == 0 {
		t.Fatalf("no perf_anomaly event fired (totals %v)", totals)
	}

	// The anomalous query's spans were auto-retained.
	var retained bool
	for _, d := range eng.FlightDigests() {
		if d.Retained == "anomaly" {
			retained = true
			if d.Spans == nil {
				t.Error("anomaly-retained digest dropped its spans")
			}
		}
	}
	if !retained {
		t.Error("no flight digest retained for the anomaly")
	}

	// The ledger's per-shard split shows the braked shard burning more
	// device time than any healthy peer.
	var report bytes.Buffer
	eng.WriteProfile(&report)
	if !strings.Contains(report.String(), "shards:") || !strings.Contains(report.String(), "shard3") {
		t.Errorf("profile report lacks the per-shard split:\n%s", report.String())
	}
}
