// Package bufpool implements the cross-query device buffer pool: a
// per-device cache of base-column buffers that survives query teardown.
//
// Queries acquire base columns through ref-counted leases instead of
// issuing their own place_data calls. A warm acquire returns the cached
// buffer with no bus traffic; a cold acquire runs the caller's transfer
// exactly once, with concurrent queries over the same cold column joining
// the in-flight transfer (shared scans) instead of issuing duplicates.
// Eviction is cost-aware: the victim is the refs==0 entry whose reload
// cost (bytes × the engine's measured ns/byte) is lowest, so the columns
// that are most expensive to re-ship stay resident. Leased entries are
// never evicted.
//
// The pool owns its bytes: the devmem layer marks pooled buffers so the
// accounting invariant pool-held + query-held + free == capacity stays
// checkable, and the session scheduler charges pooled bytes once to the
// pool (not per query). On device death the fault layer invalidates the
// device's entries — unreferenced buffers are freed immediately (delete
// is exempt from faults), leased ones are doomed and freed on the last
// release — so a dead device never leaks pooled memory.
package bufpool

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/devmem"
	"github.com/adamant-db/adamant/internal/telemetry"
	"github.com/adamant-db/adamant/internal/vclock"
	"github.com/adamant-db/adamant/internal/vec"
)

// ErrDeclined is returned by Acquire when the pool cannot hold the column:
// it is larger than the pool capacity, every resident byte is leased by
// in-flight queries, or the device was invalidated mid-load. Callers fall
// back to their legacy private transfer path.
var ErrDeclined = errors.New("bufpool: declined, column not poolable right now")

// Declined reports whether an Acquire error means "use the legacy path"
// rather than a real device failure.
func Declined(err error) bool { return errors.Is(err, ErrDeclined) }

// Policy selects the eviction order among refs==0 entries.
type Policy uint8

const (
	// CostAware evicts the entry with the lowest reload cost
	// (bytes × measured ns/byte), least-recently-used breaking ties.
	CostAware Policy = iota
	// LRU evicts the least-recently-used entry regardless of size.
	LRU
)

// String returns the policy name as accepted by ParsePolicy.
func (p Policy) String() string {
	if p == LRU {
		return "lru"
	}
	return "cost"
}

// ParsePolicy parses a policy name ("cost" or "lru").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "cost", "cost-aware", "costaware":
		return CostAware, nil
	case "lru":
		return LRU, nil
	default:
		return CostAware, fmt.Errorf("bufpool: unknown policy %q (want cost or lru)", s)
	}
}

// TransferRate supplies the measured transfer cost used by cost-aware
// eviction. *trace.Metrics implements it with its EWMA ns/byte.
type TransferRate interface {
	NsPerByte() float64
}

// Accountant is the admission-side ledger the pool charges its bytes to,
// so cached columns count against a device's budget exactly once instead
// of once per query. *session.Scheduler implements it. The pool only
// calls the Accountant with its own lock released; the scheduler may in
// turn call Manager.ReclaimForAdmission (which never calls back).
type Accountant interface {
	PoolCharge(dev device.ID, bytes int64)
	PoolRelease(dev device.ID, bytes int64)
}

// Config parameterizes a Manager.
type Config struct {
	// Capacity is the per-device pool capacity in bytes. Zero disables
	// pooling (Covers reports false everywhere).
	Capacity int64
	// Policy selects the eviction order.
	Policy Policy
	// Cost supplies ns/byte for cost-aware eviction; nil falls back to
	// size-only ordering (equivalent, since the EWMA is global).
	Cost TransferRate
	// Device resolves a device ID to the runtime's device (the
	// fault-wrapped instance), used to free evicted buffers and mark
	// pooled ownership. Required.
	Device func(device.ID) (device.Device, error)
	// Accountant, when non-nil, is charged for pool-held bytes.
	Accountant Accountant
	// Events, when non-nil, receives evict/invalidate events.
	Events *telemetry.EventSink
}

// Key identifies a cacheable base column: its catalog name, shape, and the
// identity of its host backing storage. Including the storage identity
// means a re-generated dataset (same name, fresh arrays) can never alias a
// stale entry.
type Key struct {
	Name string
	Type vec.Type
	Len  int
	Data uintptr
}

// KeyFor builds the cache key for a named base column.
func KeyFor(name string, v vec.Vector) Key {
	return Key{Name: name, Type: v.Type(), Len: v.Len(), Data: v.DataID()}
}

// Bytes returns the device footprint of the keyed column.
func (k Key) Bytes() int64 {
	if k.Type == vec.Bits {
		return 8 * int64((k.Len+63)/64)
	}
	return k.Type.ElemBytes() * int64(k.Len)
}

// LoadFunc performs the cold transfer for a missing column and returns the
// device buffer plus the virtual time it is ready. It runs on the calling
// query's device wrapper so its h2d span, fault injection and retries land
// in that query's trace.
type LoadFunc func() (devmem.BufferID, vclock.Time, error)

type entry struct {
	key     Key
	dev     device.ID
	buf     devmem.BufferID
	bytes   int64
	ready   vclock.Time
	refs    int
	uses    int64
	lastUse int64
	loading chan struct{} // non-nil while the cold transfer is in flight
	invalid bool          // device invalidated mid-load; discard on completion
	doomed  bool          // invalidated while leased; free on last release
}

type devCache struct {
	entries map[Key]*entry
	bytes   int64 // pooled bytes physically held, incl. doomed-but-leased
	probed  bool
	skip    bool // host-resident or unresolvable: never pooled
}

// TimelinePoint is one lookup outcome in the hit-ratio timeline. Joined
// lookups (shared scans) count as hits: they avoided a transfer.
type TimelinePoint struct {
	Seq uint64 `json:"seq"`
	Hit bool   `json:"hit"`
}

// timelineCap bounds the hit-ratio ring.
const timelineCap = 512

// Stats is a point-in-time snapshot of pool activity. Counters are
// lifetime; CachedBytes/Entries are current.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	SharedJoins   uint64 `json:"shared_joins"`
	Declined      uint64 `json:"declined"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	EvictedBytes  int64  `json:"evicted_bytes"`
	LoadedBytes   int64  `json:"loaded_bytes"`
	CachedBytes   int64  `json:"cached_bytes"`
	Entries       int    `json:"entries"`
	Capacity      int64  `json:"capacity"`
}

// HitRatio returns lifetime (hits+joins)/(hits+joins+misses), or 0 with no
// lookups.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.SharedJoins + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.SharedJoins) / float64(total)
}

// Manager is the buffer pool: one logical pool partitioned per device. It
// is safe for concurrent use. The Manager never calls the Accountant or a
// device while another component's lock could be waiting on m.mu in the
// opposite order: devices and the event sink are leaf locks, and the
// Accountant is only invoked with m.mu released.
type Manager struct {
	cfg Config

	mu    sync.Mutex
	devs  map[device.ID]*devCache
	clock int64

	hits, misses, joins, declined uint64
	evictions, invalidations      uint64
	evictedBytes, loadedBytes     int64

	ring      [timelineCap]TimelinePoint
	ringLen   int
	ringStart int
	lookups   uint64
}

// New returns a Manager for the config. Config.Device is required.
func New(cfg Config) *Manager {
	if cfg.Device == nil {
		panic("bufpool: Config.Device is required")
	}
	return &Manager{cfg: cfg, devs: make(map[device.ID]*devCache)}
}

// Capacity returns the per-device capacity.
func (m *Manager) Capacity() int64 { return m.cfg.Capacity }

// SetEvents wires evict/invalidate events into a telemetry sink (the
// facade arms telemetry after the pool is built).
func (m *Manager) SetEvents(sink *telemetry.EventSink) {
	m.mu.Lock()
	m.cfg.Events = sink
	m.mu.Unlock()
}

// Policy returns the eviction policy.
func (m *Manager) Policy() Policy { return m.cfg.Policy }

func (m *Manager) cacheFor(dev device.ID) *devCache {
	dc := m.devs[dev]
	if dc == nil {
		dc = &devCache{entries: make(map[Key]*entry)}
		m.devs[dev] = dc
	}
	return dc
}

func (m *Manager) tick() int64 {
	m.clock++
	return m.clock
}

func (m *Manager) point(hit bool) {
	m.lookups++
	p := TimelinePoint{Seq: m.lookups, Hit: hit}
	if m.ringLen < timelineCap {
		m.ring[(m.ringStart+m.ringLen)%timelineCap] = p
		m.ringLen++
	} else {
		m.ring[m.ringStart] = p
		m.ringStart = (m.ringStart + 1) % timelineCap
	}
}

// Covers reports whether the pool caches columns for the device: pooling
// is enabled and the device resolves to a non-host-resident target (a
// host-resident "transfer" is a registration; caching it saves nothing).
func (m *Manager) Covers(dev device.ID) bool {
	if m == nil || m.cfg.Capacity <= 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	dc := m.cacheFor(dev)
	if !dc.probed {
		dc.probed = true
		d, err := m.cfg.Device(dev)
		dc.skip = err != nil || d.Info().HostResident
	}
	return !dc.skip
}

// nsPerByte returns the cost model's current estimate, or a neutral 1.
func (m *Manager) nsPerByte() float64 {
	if m.cfg.Cost == nil {
		return 1
	}
	if ns := m.cfg.Cost.NsPerByte(); ns > 0 {
		return ns
	}
	return 1
}

// victimLocked picks the next eviction victim among refs==0, fully loaded
// entries, or nil if every resident byte is pinned by a lease.
func (m *Manager) victimLocked(dc *devCache) *entry {
	ns := m.nsPerByte()
	var best *entry
	var bestScore float64
	for _, e := range dc.entries {
		if e.refs > 0 || e.loading != nil {
			continue
		}
		var score float64
		if m.cfg.Policy == LRU {
			score = float64(e.lastUse)
		} else {
			score = float64(e.bytes) * ns
		}
		if best == nil || score < bestScore ||
			(score == bestScore && e.lastUse < best.lastUse) {
			best, bestScore = e, score
		}
	}
	return best
}

// evictLocked evicts victims until at least want bytes were freed or no
// victim remains, returning the bytes actually freed. Buffers are deleted
// through the runtime device (a leaf; safe under m.mu). The scheduler
// charge for freed bytes is NOT released here — callers decide (Acquire
// releases it via the Accountant; ReclaimForAdmission returns it to the
// scheduler, which adjusts its own ledger).
func (m *Manager) evictLocked(dc *devCache, dev device.ID, want int64) int64 {
	var freed int64
	for freed < want {
		e := m.victimLocked(dc)
		if e == nil {
			break
		}
		delete(dc.entries, e.key)
		dc.bytes -= e.bytes
		freed += e.bytes
		m.evictions++
		m.evictedBytes += e.bytes
		m.deleteBuffer(dev, e.buf)
		m.cfg.Events.Emit(telemetry.Event{
			Type:   telemetry.EventCacheEvict,
			Device: dev.String(),
			Detail: fmt.Sprintf("%s (%d B, %d uses)", e.key.Name, e.bytes, e.uses),
		})
	}
	return freed
}

// deleteBuffer frees a pooled buffer on the runtime device, tolerating a
// device that has since been reset. DeleteMemory is exempt from fault
// injection and works on dead devices, so invalidation cannot leak.
func (m *Manager) deleteBuffer(dev device.ID, buf devmem.BufferID) {
	d, err := m.cfg.Device(dev)
	if err != nil {
		return
	}
	_ = d.DeleteMemory(buf)
}

// markPooled flags pool ownership in the device's memory accounting.
func (m *Manager) markPooled(dev device.ID, buf devmem.BufferID, pooled bool) error {
	d, err := m.cfg.Device(dev)
	if err != nil {
		return err
	}
	if pm, ok := d.(device.PoolMarker); ok {
		return pm.MarkPooled(buf, pooled)
	}
	return nil
}

// account settles the admission ledger outside m.mu.
func (m *Manager) account(dev device.ID, charge, release int64) {
	if m.cfg.Accountant == nil {
		return
	}
	if charge > 0 {
		m.cfg.Accountant.PoolCharge(dev, charge)
	}
	if release > 0 {
		m.cfg.Accountant.PoolRelease(dev, release)
	}
}

// Acquire leases the keyed column on the device. A warm hit returns
// immediately (hit=true) with no device traffic. A cold miss reserves
// capacity (evicting if needed), runs load exactly once, and publishes the
// buffer; concurrent acquirers of the same cold column block on that one
// transfer and then lease the shared buffer. The caller must Release the
// lease when its query no longer reads the buffer.
//
// Errors for which Declined(err) is true mean the pool cannot hold the
// column (too large, capacity fully leased, device invalidated); the
// caller should fall back to its private transfer path. Any other error
// is the load's own failure (OOM, device lost) surfaced unchanged.
func (m *Manager) Acquire(dev device.ID, key Key, load LoadFunc) (*Lease, bool, error) {
	need := key.Bytes()
	if need <= 0 {
		m.mu.Lock()
		m.declined++
		m.mu.Unlock()
		return nil, false, fmt.Errorf("%w: empty column", ErrDeclined)
	}
	joined := false
	m.mu.Lock()
	dc := m.cacheFor(dev)
	for {
		e := dc.entries[key]
		if e == nil {
			break
		}
		if e.loading != nil {
			// Shared scan: join the in-flight transfer.
			if !joined {
				joined = true
				m.joins++
				m.point(true)
			}
			ch := e.loading
			m.mu.Unlock()
			<-ch
			m.mu.Lock()
			continue // entry may have been republished or dropped
		}
		e.refs++
		e.uses++
		e.lastUse = m.tick()
		if !joined {
			m.hits++
			m.point(true)
		}
		m.mu.Unlock()
		return &Lease{m: m, e: e}, true, nil
	}
	if need > m.cfg.Capacity {
		m.declined++
		m.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %d B column exceeds %d B pool", ErrDeclined, need, m.cfg.Capacity)
	}
	var evicted int64
	if dc.bytes+need > m.cfg.Capacity {
		evicted = m.evictLocked(dc, dev, dc.bytes+need-m.cfg.Capacity)
		if dc.bytes+need > m.cfg.Capacity {
			m.declined++
			m.mu.Unlock()
			m.account(dev, 0, evicted)
			return nil, false, fmt.Errorf("%w: pool capacity fully leased", ErrDeclined)
		}
	}
	e := &entry{key: key, dev: dev, bytes: need, loading: make(chan struct{})}
	dc.entries[key] = e
	dc.bytes += need
	m.misses++
	m.point(false)
	m.mu.Unlock()
	// Settle the ledger before the transfer so admission sees the bytes
	// the load is about to occupy.
	m.account(dev, need, evicted)

	buf, ready, err := load()
	if err == nil {
		if merr := m.markPooled(dev, buf, true); merr != nil {
			m.deleteBuffer(dev, buf)
			err = fmt.Errorf("%w: mark pooled: %v", ErrDeclined, merr)
		}
	}

	m.mu.Lock()
	invalid := e.invalid
	if err == nil && invalid {
		// Device was invalidated while the transfer ran; do not publish.
		err = fmt.Errorf("%w: device invalidated during load", ErrDeclined)
	}
	if err != nil {
		if dc.entries[key] == e {
			delete(dc.entries, key)
		}
		dc.bytes -= need
		close(e.loading)
		e.loading = nil
		m.mu.Unlock()
		if invalid && buf != 0 {
			m.deleteBuffer(dev, buf)
		}
		m.account(dev, 0, need)
		return nil, false, err
	}
	e.buf = buf
	e.ready = ready
	e.refs = 1
	e.uses = 1
	e.lastUse = m.tick()
	m.loadedBytes += need
	close(e.loading)
	e.loading = nil
	m.mu.Unlock()
	return &Lease{m: m, e: e}, false, nil
}

// Lease is a ref-counted claim on a pooled buffer. While any lease is
// live the entry cannot be evicted or reclaimed. Release is idempotent.
type Lease struct {
	m        *Manager
	e        *entry
	released bool
}

// Buffer returns the pooled device buffer.
func (l *Lease) Buffer() devmem.BufferID { return l.e.buf }

// Ready returns the virtual time the buffer's contents were ready.
func (l *Lease) Ready() vclock.Time { return l.e.ready }

// Bytes returns the buffer's device footprint.
func (l *Lease) Bytes() int64 { return l.e.bytes }

// Release drops the lease. The last release of a doomed entry (device
// invalidated while leased) frees the buffer and settles the ledger.
func (l *Lease) Release() {
	if l == nil {
		return
	}
	m := l.m
	m.mu.Lock()
	if l.released {
		m.mu.Unlock()
		return
	}
	l.released = true
	e := l.e
	e.refs--
	var freed int64
	if e.doomed && e.refs == 0 {
		freed = e.bytes
		if dc := m.devs[e.dev]; dc != nil {
			dc.bytes -= e.bytes
		}
	}
	m.mu.Unlock()
	if freed > 0 {
		m.deleteBuffer(e.dev, e.buf)
		m.account(e.dev, 0, freed)
	}
}

// ReclaimForAdmission evicts unreferenced entries on the device until at
// least want bytes were freed (or none remain) and returns the bytes
// freed. It is called by the session scheduler while it holds its own
// admission lock, so it must not — and does not — call the Accountant;
// the scheduler adjusts its pool ledger with the return value.
func (m *Manager) ReclaimForAdmission(dev device.ID, want int64) int64 {
	if m == nil || want <= 0 {
		return 0
	}
	m.mu.Lock()
	dc := m.devs[dev]
	if dc == nil {
		m.mu.Unlock()
		return 0
	}
	freed := m.evictLocked(dc, dev, want)
	m.mu.Unlock()
	return freed
}

// InvalidateDevice drops every cached column on the device after death or
// quarantine. Unreferenced entries are freed immediately (DeleteMemory is
// exempt from faults and works on dead devices). Leased entries are
// doomed: they leave the cache now and are freed on their last Release.
// Entries still loading are flagged so their loader discards the buffer
// instead of publishing it.
func (m *Manager) InvalidateDevice(dev device.ID) {
	if m == nil {
		return
	}
	m.mu.Lock()
	dc := m.devs[dev]
	if dc == nil {
		m.mu.Unlock()
		return
	}
	var freed int64
	dropped := 0
	sink := m.cfg.Events
	for k, e := range dc.entries {
		if e.loading != nil {
			e.invalid = true
			continue
		}
		delete(dc.entries, k)
		dropped++
		if e.refs > 0 {
			e.doomed = true
			continue
		}
		dc.bytes -= e.bytes
		freed += e.bytes
		m.deleteBuffer(dev, e.buf)
	}
	if dropped > 0 {
		m.invalidations++
	}
	m.mu.Unlock()
	if dropped > 0 {
		sink.Emit(telemetry.Event{
			Type:   telemetry.EventCacheInvalidate,
			Device: dev.String(),
			Detail: fmt.Sprintf("%d entries dropped, %d B freed", dropped, freed),
		})
	}
	if freed > 0 {
		m.account(dev, 0, freed)
	}
}

// InvalidateAll drops every cached column on every device — the shard
// coordinator's path when a whole shard runtime is removed after death.
// Unlike Flush, leased entries do not survive: they are doomed exactly as
// InvalidateDevice dooms them, so a flushed dead shard cannot leave
// pinned leases behind (they free on their last Release). A nil manager
// no-ops.
func (m *Manager) InvalidateAll() {
	if m == nil {
		return
	}
	m.mu.Lock()
	devs := make([]device.ID, 0, len(m.devs))
	for dev := range m.devs {
		devs = append(devs, dev)
	}
	m.mu.Unlock()
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	for _, dev := range devs {
		m.InvalidateDevice(dev)
	}
}

// Flush evicts every unreferenced entry on every device and returns the
// bytes freed. Leased entries survive. The differential fault harness
// flushes before comparing device memory baselines.
func (m *Manager) Flush() int64 {
	if m == nil {
		return 0
	}
	type devFree struct {
		dev   device.ID
		freed int64
	}
	var frees []devFree
	m.mu.Lock()
	for dev, dc := range m.devs {
		if f := m.evictLocked(dc, dev, dc.bytes); f > 0 {
			frees = append(frees, devFree{dev, f})
		}
	}
	m.mu.Unlock()
	var total int64
	for _, f := range frees {
		m.account(f.dev, 0, f.freed)
		total += f.freed
	}
	return total
}

// Stats snapshots pool-wide activity.
func (m *Manager) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Hits:          m.hits,
		Misses:        m.misses,
		SharedJoins:   m.joins,
		Declined:      m.declined,
		Evictions:     m.evictions,
		Invalidations: m.invalidations,
		EvictedBytes:  m.evictedBytes,
		LoadedBytes:   m.loadedBytes,
		Capacity:      m.cfg.Capacity,
	}
	for _, dc := range m.devs {
		s.CachedBytes += dc.bytes
		s.Entries += len(dc.entries)
	}
	return s
}

// CachedBytes returns the pooled bytes currently held on one device.
func (m *Manager) CachedBytes(dev device.ID) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if dc := m.devs[dev]; dc != nil {
		return dc.bytes
	}
	return 0
}

// Timeline returns the most recent lookup outcomes, oldest first. Joined
// lookups count as hits (the transfer was avoided).
func (m *Manager) Timeline() []TimelinePoint {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]TimelinePoint, m.ringLen)
	for i := 0; i < m.ringLen; i++ {
		out[i] = m.ring[(m.ringStart+i)%timelineCap]
	}
	return out
}
