// Package cost closes ADAMANT's feedback loop: it keeps a catalog of
// measured virtual-time rates and plans queries from it — device, execution
// model, and initial chunk size — with a mid-query re-planning hook when
// observed cardinalities drift from the estimates.
//
// The paper leaves placement and model choice to the user of the plug-in
// interfaces, and its Fig. 9/11 finding is that the right choice flips with
// the query and the scale. The planner does not guess it from a cost model
// of its own: the executor running on the simulated devices is the one
// pricing source, so a plan whose cells the catalog lacks is rehearsed —
// run under every execution model on a fresh instance of every candidate
// device — and the fastest cell wins. Whole-query rates are keyed by model,
// driver, plan shape (graph.Fingerprint) and log2 size bucket, and looked
// up exactly: a later plan of the same shape reads them back and rehearses
// nothing. The same Key/Entry store also backs the profiler's per-primitive
// anomaly baselines (Nearest, PrimH2D, PrimD2H).
//
// Determinism is load-bearing. EWMA updates are plain arithmetic over
// virtual time, serialization writes exact hex floats under sorted keys,
// and the planner breaks ties in candidate and enum order — so a warm
// catalog reproduces identical plans, and plans are diffable artifacts like
// traces.
package cost

import (
	"sort"
	"sync"

	"github.com/adamant-db/adamant/internal/vclock"
)

// Pseudo-primitive names for catalog entries that are not kernels: the
// host-to-device and device-to-host links, and whole-query rates
// (PrimQueryPrefix + model + "/" + plan shape).
const (
	PrimH2D         = "__h2d"
	PrimD2H         = "__d2h"
	PrimQueryPrefix = "__query/"
)

// Key identifies one catalog entry: a primitive (kernel name or
// pseudo-primitive), the driver it ran under (the device's full name, e.g.
// "GeForce RTX 2080 Ti/cuda"), and the log2 bucket of its input size.
type Key struct {
	Primitive string
	Driver    string
	Bucket    int
}

// Entry is one learned rate: virtual nanoseconds per unit (rows for
// kernels and whole queries, bytes for transfers), with the sample count
// behind it.
type Entry struct {
	NsPerUnit float64
	Samples   int64
}

// BucketOf returns the log2 size bucket for n units: 0 for n <= 0, else
// the bit length of n, so bucket b >= 1 covers [2^(b-1), 2^b).
func BucketOf(n int64) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	if b > 0 || n == 1 {
		b++
	}
	return b
}

// Catalog is the concurrent-safe store of learned rates.
type Catalog struct {
	mu      sync.Mutex
	alpha   float64
	entries map[Key]Entry
}

// defaultAlpha matches the telemetry EWMAs: new observations move the
// estimate a quarter of the way, smoothing chunk-size and cache-state noise
// without going stale.
const defaultAlpha = 0.25

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{alpha: defaultAlpha, entries: map[Key]Entry{}}
}

// Observe folds one measurement — d virtual time over units of work —
// into the entry for k with an EWMA. The first sample sets the rate
// directly.
func (c *Catalog) Observe(k Key, units int64, d vclock.Duration) {
	if c == nil || units <= 0 || d < 0 {
		return
	}
	obs := float64(d) / float64(units)
	c.mu.Lock()
	e := c.entries[k]
	if e.Samples == 0 {
		e.NsPerUnit = obs
	} else {
		e.NsPerUnit = c.alpha*obs + (1-c.alpha)*e.NsPerUnit
	}
	e.Samples++
	c.entries[k] = e
	c.mu.Unlock()
}

// Lookup returns the exact entry for k.
func (c *Catalog) Lookup(k Key) (Entry, bool) {
	if c == nil {
		return Entry{}, false
	}
	c.mu.Lock()
	e, ok := c.entries[k]
	c.mu.Unlock()
	return e, ok
}

// Nearest returns the entry for k, or failing that the entry with the
// same primitive and driver in the nearest bucket (smaller bucket wins
// ties, deterministically). Sizes scale smoothly within a primitive, so
// the nearest measured rate beats an analytic guess.
func (c *Catalog) Nearest(k Key) (Entry, bool) {
	if c == nil {
		return Entry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		return e, true
	}
	best := -1
	var bestEntry Entry
	for ek, e := range c.entries {
		if ek.Primitive != k.Primitive || ek.Driver != k.Driver {
			continue
		}
		d := ek.Bucket - k.Bucket
		if d < 0 {
			d = -d
		}
		dist := d*2 + 1
		if ek.Bucket < k.Bucket {
			dist-- // prefer the smaller bucket on equal distance
		}
		if best < 0 || dist < best {
			best = dist
			bestEntry = e
		}
	}
	return bestEntry, best >= 0
}

// Len reports the number of entries.
func (c *Catalog) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Keys returns every key in the catalog's canonical order: sorted by
// primitive, then driver, then bucket.
func (c *Catalog) Keys() []Key {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	keys := make([]Key, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Primitive != b.Primitive {
			return a.Primitive < b.Primitive
		}
		if a.Driver != b.Driver {
			return a.Driver < b.Driver
		}
		return a.Bucket < b.Bucket
	})
	return keys
}

// ObserveQuery records a whole-query rate for one cell — an execution
// model on a driver, for one plan shape (graph.Fingerprint) at one size
// bucket of its dominant input: elapsed virtual time over those rows. The
// planner rehearses exactly the cells it cannot find here.
func (c *Catalog) ObserveQuery(model, driver, shape string, rows int64, elapsed vclock.Duration) {
	units := rows
	if units < 1 {
		units = 1
	}
	c.Observe(queryKey(model, driver, shape, rows), units, elapsed)
}

// queryKey is the catalog key of one whole-query cell.
func queryKey(model, driver, shape string, rows int64) Key {
	return Key{PrimQueryPrefix + model + "/" + shape, driver, BucketOf(rows)}
}
