package bufpool_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/adamant-db/adamant/internal/bufpool"
	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/driver/simcuda"
	"github.com/adamant-db/adamant/internal/driver/simomp"
	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/telemetry"
	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// rig is one simulated GPU behind the pool's Device resolver.
type rig struct {
	dev *device.Sim
}

func newRig(t *testing.T) *rig {
	t.Helper()
	d := simcuda.New(&simhw.RTX2080Ti, nil)
	if err := d.Initialize(); err != nil {
		t.Fatal(err)
	}
	return &rig{dev: d}
}

func (r *rig) resolve(id device.ID) (device.Device, error) {
	if id != 0 {
		return nil, fmt.Errorf("no device %d", id)
	}
	return r.dev, nil
}

// column builds an n-element int32 host column named name.
func column(name string, n int) (string, vec.Vector) {
	data := make([]int32, n)
	for i := range data {
		data[i] = int32(i)
	}
	return name, vec.FromInt32(data)
}

// loader returns a LoadFunc that ships v to the rig's device, counting calls.
func (r *rig) loader(v vec.Vector, calls *int) bufpool.LoadFunc {
	return func() (devmem.BufferID, vclock.Time, error) {
		if calls != nil {
			*calls++
		}
		return r.dev.PlaceData(v, 0)
	}
}

// audit fails the test if the device's memory accounting invariant broke.
func (r *rig) audit(t *testing.T) {
	t.Helper()
	if err := r.dev.CheckMemAccounting(); err != nil {
		t.Fatal(err)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]bufpool.Policy{
		"cost": bufpool.CostAware, "cost-aware": bufpool.CostAware,
		"costaware": bufpool.CostAware, "lru": bufpool.LRU,
	} {
		got, err := bufpool.ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := bufpool.ParsePolicy("fifo"); err == nil {
		t.Error("unknown policy must error")
	}
	if bufpool.CostAware.String() != "cost" || bufpool.LRU.String() != "lru" {
		t.Error("policy String mismatch")
	}
}

func TestKeyBytes(t *testing.T) {
	_, v := column("a", 100)
	k := bufpool.KeyFor("a", v)
	if k.Bytes() != 400 {
		t.Errorf("int32 key bytes = %d, want 400", k.Bytes())
	}
	bits := bufpool.Key{Name: "m", Type: vec.Bits, Len: 100}
	if bits.Bytes() != 16 {
		t.Errorf("bits key bytes = %d, want 16 (2 words)", bits.Bytes())
	}
	// Distinct backing arrays must produce distinct keys even under the
	// same catalog name, so a regenerated dataset cannot alias stale data.
	_, v2 := column("a", 100)
	if bufpool.KeyFor("a", v2) == k {
		t.Error("fresh backing array aliased the old key")
	}
}

func TestNewRequiresDeviceResolver(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New without Device must panic")
		}
	}()
	bufpool.New(bufpool.Config{Capacity: 1024})
}

func TestCoversGatesPooling(t *testing.T) {
	r := newRig(t)
	m := bufpool.New(bufpool.Config{Capacity: 1 << 20, Device: r.resolve})
	if !m.Covers(0) {
		t.Error("GPU device must be covered")
	}
	if m.Covers(7) {
		t.Error("unresolvable device must not be covered")
	}

	var nilPool *bufpool.Manager
	if nilPool.Covers(0) {
		t.Error("nil pool covers nothing")
	}
	zero := bufpool.New(bufpool.Config{Device: r.resolve})
	if zero.Covers(0) {
		t.Error("zero-capacity pool covers nothing")
	}

	host := simomp.New(&simhw.CoreI78700, nil)
	hm := bufpool.New(bufpool.Config{Capacity: 1 << 20, Device: func(device.ID) (device.Device, error) {
		return host, nil
	}})
	if hm.Covers(0) {
		t.Error("host-resident device must not be covered: caching saves no transfer")
	}
}

func TestAcquireMissThenHit(t *testing.T) {
	r := newRig(t)
	m := bufpool.New(bufpool.Config{Capacity: 1 << 20, Device: r.resolve})
	name, v := column("l_qty", 1000)
	key := bufpool.KeyFor(name, v)

	calls := 0
	l1, hit, err := m.Acquire(0, key, r.loader(v, &calls))
	if err != nil || hit {
		t.Fatalf("cold acquire: hit=%v err=%v", hit, err)
	}
	if l1.Bytes() != 4000 {
		t.Errorf("lease bytes = %d", l1.Bytes())
	}
	r.audit(t)
	if ms := r.dev.MemStats(); ms.PooledUsed != 4000 {
		t.Errorf("device pooled bytes = %d, want 4000", ms.PooledUsed)
	}

	l2, hit, err := m.Acquire(0, key, r.loader(v, &calls))
	if err != nil || !hit {
		t.Fatalf("warm acquire: hit=%v err=%v", hit, err)
	}
	if calls != 1 {
		t.Errorf("load ran %d times, want 1", calls)
	}
	if l2.Buffer() != l1.Buffer() {
		t.Error("warm hit returned a different buffer")
	}
	l1.Release()
	l2.Release()
	l2.Release() // idempotent
	var nilLease *bufpool.Lease
	nilLease.Release() // nil-safe

	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.CachedBytes != 4000 || st.Entries != 1 {
		t.Errorf("stats %+v", st)
	}
	if got := st.HitRatio(); got != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", got)
	}
	if m.CachedBytes(0) != 4000 {
		t.Errorf("CachedBytes = %d", m.CachedBytes(0))
	}
	r.audit(t)
}

func TestAcquireDeclinesImpossibleColumns(t *testing.T) {
	r := newRig(t)
	m := bufpool.New(bufpool.Config{Capacity: 1000, Device: r.resolve})

	_, _, err := m.Acquire(0, bufpool.Key{Name: "empty", Type: vec.Int32}, r.loader(vec.Vector{}, nil))
	if !bufpool.Declined(err) {
		t.Errorf("empty column: %v", err)
	}

	name, v := column("big", 10_000) // 40 KB > 1000 B capacity
	_, _, err = m.Acquire(0, bufpool.KeyFor(name, v), r.loader(v, nil))
	if !bufpool.Declined(err) {
		t.Errorf("oversized column: %v", err)
	}
	if st := m.Stats(); st.Declined != 2 {
		t.Errorf("declined = %d, want 2", st.Declined)
	}
	if bufpool.Declined(errors.New("other")) {
		t.Error("Declined must be false for foreign errors")
	}
}

func TestAcquireDeclinesWhenFullyLeased(t *testing.T) {
	r := newRig(t)
	m := bufpool.New(bufpool.Config{Capacity: 4000, Device: r.resolve})
	nameA, a := column("a", 1000) // fills the pool exactly
	lease, _, err := m.Acquire(0, bufpool.KeyFor(nameA, a), r.loader(a, nil))
	if err != nil {
		t.Fatal(err)
	}
	// a is leased, so it cannot be evicted to admit b.
	nameB, b := column("b", 1000)
	_, _, err = m.Acquire(0, bufpool.KeyFor(nameB, b), r.loader(b, nil))
	if !bufpool.Declined(err) {
		t.Errorf("fully leased pool: %v", err)
	}
	lease.Release()
	// Now a is evictable and b fits.
	lb, hit, err := m.Acquire(0, bufpool.KeyFor(nameB, b), r.loader(b, nil))
	if err != nil || hit {
		t.Fatalf("post-release acquire: hit=%v err=%v", hit, err)
	}
	lb.Release()
	st := m.Stats()
	if st.Evictions != 1 || st.EvictedBytes != 4000 {
		t.Errorf("stats %+v", st)
	}
	r.audit(t)
}

// fixedCost is a TransferRate pinned to a constant.
type fixedCost float64

func (c fixedCost) NsPerByte() float64 { return float64(c) }

func TestCostAwareEvictsCheapestReload(t *testing.T) {
	r := newRig(t)
	sink := telemetry.NewEventSink(16)
	m := bufpool.New(bufpool.Config{
		Capacity: 12_000, Policy: bufpool.CostAware, Cost: fixedCost(2),
		Device: r.resolve, Events: sink,
	})
	nameSmall, small := column("small", 1000) // 4000 B — cheapest to re-ship
	nameBig, big := column("big", 2000)       // 8000 B
	ls, _, err := m.Acquire(0, bufpool.KeyFor(nameSmall, small), r.loader(small, nil))
	if err != nil {
		t.Fatal(err)
	}
	ls.Release()
	lb, _, err := m.Acquire(0, bufpool.KeyFor(nameBig, big), r.loader(big, nil))
	if err != nil {
		t.Fatal(err)
	}
	lb.Release()

	// 4000 B more: small (cost 4000×2) must go, big (8000×2) must stay.
	nameNew, fresh := column("fresh", 1000)
	ln, _, err := m.Acquire(0, bufpool.KeyFor(nameNew, fresh), r.loader(fresh, nil))
	if err != nil {
		t.Fatal(err)
	}
	ln.Release()

	if _, hit, _ := m.Acquire(0, bufpool.KeyFor(nameBig, big), r.loader(big, nil)); !hit {
		t.Error("expensive column was evicted; cost-aware policy must keep it")
	}
	if sink.Total(telemetry.EventCacheEvict) == 0 {
		t.Error("eviction emitted no event")
	}
	r.audit(t)
}

func TestLRUEvictsOldest(t *testing.T) {
	r := newRig(t)
	m := bufpool.New(bufpool.Config{Capacity: 12_000, Policy: bufpool.LRU, Device: r.resolve})
	nameOld, old := column("old", 2000) // 8000 B: expensive to reload, but oldest
	nameHot, hot := column("hot", 500)  // 2000 B, most recently used
	lo, _, err := m.Acquire(0, bufpool.KeyFor(nameOld, old), r.loader(old, nil))
	if err != nil {
		t.Fatal(err)
	}
	lo.Release()
	lh, _, err := m.Acquire(0, bufpool.KeyFor(nameHot, hot), r.loader(hot, nil))
	if err != nil {
		t.Fatal(err)
	}
	lh.Release()

	// 4000 B more needs 2000 freed: LRU takes the oldest entry (old)
	// even though cost-aware would have preferred the cheap one (hot).
	nameNew, fresh := column("fresh", 1000)
	ln, _, err := m.Acquire(0, bufpool.KeyFor(nameNew, fresh), r.loader(fresh, nil))
	if err != nil {
		t.Fatal(err)
	}
	ln.Release()
	lh2, hit, err := m.Acquire(0, bufpool.KeyFor(nameHot, hot), r.loader(hot, nil))
	if err != nil || !hit {
		t.Errorf("LRU evicted the most recently used entry: hit=%v err=%v", hit, err)
	}
	lh2.Release()
	r.audit(t)
}

func TestLoadFailureLeavesNoEntry(t *testing.T) {
	r := newRig(t)
	m := bufpool.New(bufpool.Config{Capacity: 1 << 20, Device: r.resolve})
	name, v := column("a", 100)
	key := bufpool.KeyFor(name, v)
	boom := errors.New("bus on fire")
	_, _, err := m.Acquire(0, key, func() (devmem.BufferID, vclock.Time, error) {
		return 0, 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("load error not surfaced: %v", err)
	}
	if st := m.Stats(); st.CachedBytes != 0 || st.Entries != 0 {
		t.Errorf("failed load left residue: %+v", st)
	}
	// A retry can now load normally.
	l, hit, err := m.Acquire(0, key, r.loader(v, nil))
	if err != nil || hit {
		t.Fatalf("retry after failed load: hit=%v err=%v", hit, err)
	}
	l.Release()
	r.audit(t)
}

// accountLog records Accountant calls.
type accountLog struct {
	mu      sync.Mutex
	charged int64
}

func (a *accountLog) PoolCharge(_ device.ID, b int64) {
	a.mu.Lock()
	a.charged += b
	a.mu.Unlock()
}

func (a *accountLog) PoolRelease(_ device.ID, b int64) {
	a.mu.Lock()
	a.charged -= b
	a.mu.Unlock()
}

func (a *accountLog) net() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.charged
}

func TestAccountantBalancesAcrossLifecycle(t *testing.T) {
	r := newRig(t)
	acct := &accountLog{}
	m := bufpool.New(bufpool.Config{Capacity: 8000, Device: r.resolve, Accountant: acct})

	nameA, a := column("a", 1000)
	la, _, err := m.Acquire(0, bufpool.KeyFor(nameA, a), r.loader(a, nil))
	if err != nil {
		t.Fatal(err)
	}
	if acct.net() != 4000 {
		t.Errorf("after load: net charge %d, want 4000", acct.net())
	}
	la.Release()

	// Failed load must settle to zero net.
	nameB, b := column("b", 500)
	boom := errors.New("nope")
	if _, _, err := m.Acquire(0, bufpool.KeyFor(nameB, b), func() (devmem.BufferID, vclock.Time, error) {
		return 0, 0, boom
	}); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if acct.net() != 4000 {
		t.Errorf("after failed load: net %d, want 4000", acct.net())
	}

	// Eviction during a new acquire releases the evicted charge.
	nameC, c := column("c", 1500) // 6000 B forces evicting a
	lc, _, err := m.Acquire(0, bufpool.KeyFor(nameC, c), r.loader(c, nil))
	if err != nil {
		t.Fatal(err)
	}
	lc.Release()
	if acct.net() != 6000 {
		t.Errorf("after evict+load: net %d, want 6000", acct.net())
	}

	if freed := m.Flush(); freed != 6000 {
		t.Errorf("flush freed %d, want 6000", freed)
	}
	if acct.net() != 0 {
		t.Errorf("after flush: net %d, want 0", acct.net())
	}
	if ms := r.dev.MemStats(); ms.Used != 0 || ms.PooledUsed != 0 {
		t.Errorf("device not clean after flush: %+v", ms)
	}
	r.audit(t)
}

func TestReclaimForAdmission(t *testing.T) {
	r := newRig(t)
	m := bufpool.New(bufpool.Config{Capacity: 1 << 20, Device: r.resolve})
	nameA, a := column("a", 1000)
	la, _, err := m.Acquire(0, bufpool.KeyFor(nameA, a), r.loader(a, nil))
	if err != nil {
		t.Fatal(err)
	}
	nameB, b := column("b", 1000)
	lb, _, err := m.Acquire(0, bufpool.KeyFor(nameB, b), r.loader(b, nil))
	if err != nil {
		t.Fatal(err)
	}
	lb.Release()

	// a is leased and must survive; b is reclaimable.
	if freed := m.ReclaimForAdmission(0, 1); freed != 4000 {
		t.Errorf("reclaim freed %d, want 4000 (entry granularity)", freed)
	}
	if freed := m.ReclaimForAdmission(0, 1); freed != 0 {
		t.Errorf("second reclaim freed %d, want 0: only a leased entry remains", freed)
	}
	if m.ReclaimForAdmission(0, 0) != 0 || m.ReclaimForAdmission(3, 10) != 0 {
		t.Error("degenerate reclaims must free nothing")
	}
	var nilPool *bufpool.Manager
	if nilPool.ReclaimForAdmission(0, 10) != 0 {
		t.Error("nil pool reclaim")
	}
	if _, hit, _ := m.Acquire(0, bufpool.KeyFor(nameA, a), r.loader(a, nil)); !hit {
		t.Error("leased entry was reclaimed")
	}
	la.Release()
	r.audit(t)
}

func TestInvalidateDeviceFreesAndDooms(t *testing.T) {
	r := newRig(t)
	sink := telemetry.NewEventSink(16)
	acct := &accountLog{}
	m := bufpool.New(bufpool.Config{Capacity: 1 << 20, Device: r.resolve, Accountant: acct})
	m.SetEvents(sink)

	nameA, a := column("a", 1000)
	nameB, b := column("b", 500)
	la, _, err := m.Acquire(0, bufpool.KeyFor(nameA, a), r.loader(a, nil))
	if err != nil {
		t.Fatal(err)
	}
	lb, _, err := m.Acquire(0, bufpool.KeyFor(nameB, b), r.loader(b, nil))
	if err != nil {
		t.Fatal(err)
	}
	lb.Release()

	m.InvalidateDevice(0) // b freed now; a doomed until la releases
	if st := m.Stats(); st.Invalidations != 1 || st.Entries != 0 || st.CachedBytes != 4000 {
		t.Errorf("after invalidate: %+v", st)
	}
	if acct.net() != 4000 {
		t.Errorf("doomed bytes must stay charged: net %d", acct.net())
	}
	if sink.Total(telemetry.EventCacheInvalidate) != 1 {
		t.Error("invalidate emitted no event")
	}

	// A fresh acquire must not see the stale entry.
	calls := 0
	la2, hit, err := m.Acquire(0, bufpool.KeyFor(nameA, a), r.loader(a, &calls))
	if err != nil || hit || calls != 1 {
		t.Fatalf("post-invalidate acquire: hit=%v calls=%d err=%v", hit, calls, err)
	}
	la2.Release()

	la.Release() // last ref on the doomed entry frees it
	if acct.net() != 4000 {
		t.Errorf("after doomed release: net %d, want only the reloaded column", acct.net())
	}
	if m.CachedBytes(0) != 4000 {
		t.Errorf("cached bytes = %d", m.CachedBytes(0))
	}
	m.InvalidateDevice(0)
	m.InvalidateDevice(3) // unknown device is a no-op
	var nilPool *bufpool.Manager
	nilPool.InvalidateDevice(0)
	if ms := r.dev.MemStats(); ms.Used != 0 {
		t.Errorf("device leaked %d bytes after invalidation", ms.Used)
	}
	r.audit(t)
}

func TestTimelineTracksOutcomes(t *testing.T) {
	r := newRig(t)
	m := bufpool.New(bufpool.Config{Capacity: 1 << 20, Device: r.resolve})
	name, v := column("a", 100)
	key := bufpool.KeyFor(name, v)
	l, _, err := m.Acquire(0, key, r.loader(v, nil))
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	for i := 0; i < 600; i++ { // overflow the ring: only recent hits remain
		l, hit, err := m.Acquire(0, key, r.loader(v, nil))
		if err != nil || !hit {
			t.Fatal(err)
		}
		l.Release()
	}
	tl := m.Timeline()
	if len(tl) != 512 {
		t.Fatalf("timeline length %d, want ring cap 512", len(tl))
	}
	for i, p := range tl {
		if !p.Hit {
			t.Fatalf("point %d (seq %d) is a miss; the cold miss must have rolled off", i, p.Seq)
		}
		if i > 0 && p.Seq != tl[i-1].Seq+1 {
			t.Fatalf("timeline seq gap at %d", i)
		}
	}
	var nilPool *bufpool.Manager
	if nilPool.Timeline() != nil || nilPool.CachedBytes(0) != 0 {
		t.Error("nil pool accessors")
	}
	if (bufpool.Stats{}).HitRatio() != 0 {
		t.Error("empty stats hit ratio must be 0")
	}
	if nilPool.Stats() != (bufpool.Stats{}) || nilPool.Flush() != 0 {
		t.Error("nil pool stats/flush")
	}
}
