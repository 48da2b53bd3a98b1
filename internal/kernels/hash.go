package kernels

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"github.com/adamant-db/adamant/internal/simhw"
	"github.com/adamant-db/adamant/internal/vec"
)

// Hash tables are stored in plain int64 device buffers as interleaved
// (key, payload) slot pairs with linear probing, exactly the single shared
// global-memory table with atomic insertion the paper profiles in Figure 9.
// The empty-slot sentinel is math.MinInt64; HashTableInit must run once
// before the first build chunk.

// hashEmpty marks a free slot.
const hashEmpty = math.MinInt64

// HashTableLen returns the int64 element count of a table buffer sized for
// n distinct keys at 50% maximum load.
func HashTableLen(n int) int {
	slots := 16
	for slots < 2*n {
		slots <<= 1
	}
	return 2 * slots
}

func hashSlot(key int64, slots int) int {
	h := uint64(key) * 0x9E3779B97F4A7C15
	return int(h & uint64(slots-1))
}

func tableOf(v vec.Vector) ([]int64, int, error) {
	t := v.I64()
	if len(t) == 0 || len(t)%2 != 0 || (len(t)/2)&(len(t)/2-1) != 0 {
		return nil, 0, fmt.Errorf("%w: hash table length %d is not 2*power-of-two", ErrBadArgs, len(t))
	}
	return t, len(t) / 2, nil
}

// HashTableInit fills a table buffer with empty slots. Payload cells start
// at the optional params[0] (pass the aggregate identity before HASH_AGG
// min/max builds; defaults to 0). Args: table(I64); params: [payloadInit].
var HashTableInit = register(&Kernel{
	Name:   "hash_table_init",
	NArgs:  1,
	Source: "__kernel hash_table_init(t, init) { t.key[s] = EMPTY; t.val[s] = init; }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		t, slots, err := tableOf(args[0])
		if err != nil {
			return err
		}
		var payloadInit int64
		if len(params) > 0 {
			payloadInit = params[0]
		}
		parallelRange(ctx, slots, 1, func(s, e int) {
			for i := s; i < e; i++ {
				t[2*i] = hashEmpty
				t[2*i+1] = payloadInit
			}
		})
		return nil
	},
})

// buildTraffic is the contended insertion path of HASH_BUILD: one atomic
// CAS per input row plus scattered slot writes into the shared table. The
// SDK prices contention by the table's slot count — larger tables thrash
// more cache lines — which is the degradation Figure 9(d) shows.
func buildTraffic(args []vec.Vector, _ []int64) simhw.Traffic {
	n := int64(args[0].Len())
	return simhw.Traffic{Atomics: n, Random: 16 * n, Slots: int64(args[1].Len() / 2)}
}

// insert performs a lock-free linear-probing insert, invoking onClaim with
// the payload cell once the key's slot is found or claimed. It reports
// false when the table is full (every slot probed and occupied by other
// keys), which kernels surface as an undersized-table error rather than
// spinning.
func insert(t []int64, slots int, key int64, onClaim func(payloadIdx int)) bool {
	slot := hashSlot(key, slots)
	for probes := 0; probes < slots; probes++ {
		k := atomic.LoadInt64(&t[2*slot])
		if k == key {
			onClaim(2*slot + 1)
			return true
		}
		if k == hashEmpty {
			if atomic.CompareAndSwapInt64(&t[2*slot], hashEmpty, key) {
				onClaim(2*slot + 1)
				return true
			}
			probes-- // lost the race; re-read this slot
			continue
		}
		slot = (slot + 1) & (slots - 1)
	}
	return false
}

// errTableFull is the shared overflow error for insertion kernels.
var errTableFull = fmt.Errorf("%w: hash table full (undersized for build side)", ErrBadArgs)

// lookup returns the payload cell index for key, or -1 if absent.
func lookup(t []int64, slots int, key int64) int {
	slot := hashSlot(key, slots)
	for probes := 0; probes < slots; probes++ {
		k := atomic.LoadInt64(&t[2*slot])
		if k == key {
			return 2*slot + 1
		}
		if k == hashEmpty {
			return -1
		}
		slot = (slot + 1) & (slots - 1)
	}
	return -1
}

// HashBuildPKI32 populates a table mapping each key to its global row
// position (the HASH_BUILD primitive for a primary-key build side). The
// base parameter is the chunk's global row offset, so chunked builds
// produce global positions. Duplicate keys keep the last writer. Args:
// keys(I32), table(I64); params: base.
var HashBuildPKI32 = register(&Kernel{
	Name:    "hash_build_pk_i32",
	NArgs:   2,
	NParams: 1,
	Source:  "__kernel hash_build_pk_i32(k, t, base) { insert(t, k[i], base+i); }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		keys := args[0].I32()
		t, slots, err := tableOf(args[1])
		if err != nil {
			return err
		}
		base := params[0]
		var full atomic.Bool
		parallelRange(ctx, len(keys), 1, func(s, e int) {
			for i := s; i < e; i++ {
				row := base + int64(i)
				if !insert(t, slots, int64(keys[i]), func(p int) {
					atomic.StoreInt64(&t[p], row)
				}) {
					full.Store(true)
					return
				}
			}
		})
		if full.Load() {
			return errTableFull
		}
		return nil
	},
	Traffic: buildTraffic,
})

// HashBuildSetI32 populates a key set (payload 1), the build side of a
// semi-join such as the EXISTS subquery of TPC-H Q4. Args: keys(I32),
// table(I64).
var HashBuildSetI32 = register(&Kernel{
	Name:   "hash_build_set_i32",
	NArgs:  2,
	Source: "__kernel hash_build_set_i32(k, t) { insert(t, k[i], 1); }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		keys := args[0].I32()
		t, slots, err := tableOf(args[1])
		if err != nil {
			return err
		}
		var full atomic.Bool
		parallelRange(ctx, len(keys), 1, func(s, e int) {
			for i := s; i < e; i++ {
				if !insert(t, slots, int64(keys[i]), func(p int) {
					atomic.StoreInt64(&t[p], 1)
				}) {
					full.Store(true)
					return
				}
			}
		})
		if full.Load() {
			return errTableFull
		}
		return nil
	},
	Traffic: buildTraffic,
})

// HashProbeI32 probes the table with a key column and emits join pairs:
// outLeft gets the global probe-side position, outRight the matched build
// payload (the JOINLEFT/JOINRIGHT outputs of Table I). Pair order is
// unspecified, as with competing GPU threads. The pair count goes to
// outCount[0]. Args: keys(I32), table(I64), outLeft(I32), outRight(I64),
// outCount(I64 len 1); params: base.
var HashProbeI32 = register(&Kernel{
	Name:    "hash_probe_i32",
	NArgs:   5,
	NParams: 1,
	Source:  "__kernel hash_probe_i32(k, t, l, r, c, base) { /* probe + atomic append */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		keys := args[0].I32()
		t, slots, err := tableOf(args[1])
		if err != nil {
			return err
		}
		outLeft, outRight, outCount := args[2].I32(), args[3].I64(), args[4].I64()
		if len(outCount) != 1 {
			return fmt.Errorf("%w: hash_probe count buffer must have 1 element", ErrBadArgs)
		}
		if len(outLeft) != len(outRight) {
			return fmt.Errorf("%w: hash_probe output pair lengths differ", ErrBadArgs)
		}
		base := params[0]
		var cursor int64
		var overflow atomic.Bool
		parallelRange(ctx, len(keys), 1, func(s, e int) {
			for i := s; i < e; i++ {
				p := lookup(t, slots, int64(keys[i]))
				if p < 0 {
					continue
				}
				at := atomic.AddInt64(&cursor, 1) - 1
				if at >= int64(len(outLeft)) {
					overflow.Store(true)
					return
				}
				outLeft[at] = int32(base + int64(i))
				outRight[at] = atomic.LoadInt64(&t[p])
			}
		})
		if overflow.Load() {
			return fmt.Errorf("%w: hash_probe output holds %d pairs, overflowed", ErrBadArgs, len(outLeft))
		}
		outCount[0] = cursor
		return nil
	},
	Traffic: probeTraffic,
})

// HashProbeExistsI32 probes the table and marks matching probe rows in a
// bitmap, the semi-join form used by EXISTS subqueries. Args: keys(I32),
// table(I64), out(Bits).
var HashProbeExistsI32 = register(&Kernel{
	Name:   "hash_probe_exists_i32",
	NArgs:  3,
	Source: "__kernel hash_probe_exists_i32(k, t, bm) { bm.bit[i] = contains(t, k[i]); }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		keys := args[0].I32()
		t, slots, err := tableOf(args[1])
		if err != nil {
			return err
		}
		out := args[2]
		if out.Type() != vec.Bits || out.Len() != len(keys) {
			return fmt.Errorf("%w: hash_probe_exists output %s for %d keys", ErrBadArgs, out, len(keys))
		}
		words := out.Words()
		parallelRange(ctx, len(keys), 64, func(s, e int) {
			for w := s / 64; w*64 < e; w++ {
				var bits uint64
				limit := (w + 1) * 64
				if limit > e {
					limit = e
				}
				for i := w * 64; i < limit; i++ {
					if lookup(t, slots, int64(keys[i])) >= 0 {
						bits |= 1 << uint(i%64)
					}
				}
				words[w] = bits
			}
		})
		return nil
	},
	Traffic: probeTraffic,
})

// probeTraffic is one random table access per probe row; larger tables
// thrash caches, so the SDK scales it by the table's slot count too.
func probeTraffic(args []vec.Vector, _ []int64) simhw.Traffic {
	return simhw.Traffic{Probe: 16 * int64(args[0].Len()), Slots: int64(args[1].Len() / 2)}
}

// HashAggI32I64 performs group-by aggregation of an int64 value column by
// an int32 key column into a shared table (the HASH_AGG primitive, a
// pipeline breaker). Accumulates across chunks. Args: keys(I32),
// values(I64), table(I64); params: op, groupsHint (read only to price the
// launch; pass 0 when unknown).
var HashAggI32I64 = register(&Kernel{
	Name:    "hash_agg_i32_i64",
	NArgs:   3,
	NParams: 2,
	Source:  "__kernel hash_agg_i32_i64(k, v, t, op) { slot = insert(t, k[i]); atomicAgg(t, slot, v[i]); }",
	Fn: func(ctx *Ctx, args []vec.Vector, params []int64) error {
		keys, values := args[0].I32(), args[1].I64()
		if err := sameLen(len(keys), len(values)); err != nil {
			return err
		}
		t, slots, err := tableOf(args[2])
		if err != nil {
			return err
		}
		op := AggOp(params[0])
		var full atomic.Bool
		parallelRange(ctx, len(keys), 1, func(s, e int) {
			for i := s; i < e; i++ {
				v := values[i]
				if !insert(t, slots, int64(keys[i]), func(p int) {
					atomicAgg(t, p, op, v)
				}) {
					full.Store(true)
					return
				}
			}
		})
		if full.Load() {
			return errTableFull
		}
		return nil
	},
	Traffic: func(args []vec.Vector, params []int64) simhw.Traffic {
		return hashAggTraffic(args, params[1])
	},
})

// HashAggCountI32 counts rows per int32 key into a shared table. Args:
// keys(I32), table(I64); params: groupsHint. The hint is deliberately left
// unpriced, so the launch pays no group-scaling contention.
var HashAggCountI32 = register(&Kernel{
	Name:    "hash_agg_count_i32",
	NArgs:   2,
	NParams: 1,
	Source:  "__kernel hash_agg_count_i32(k, t) { slot = insert(t, k[i]); atomicAdd(t, slot, 1); }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		keys := args[0].I32()
		t, slots, err := tableOf(args[1])
		if err != nil {
			return err
		}
		var full atomic.Bool
		parallelRange(ctx, len(keys), 1, func(s, e int) {
			for i := s; i < e; i++ {
				if !insert(t, slots, int64(keys[i]), func(p int) {
					atomic.AddInt64(&t[p], 1)
				}) {
					full.Store(true)
					return
				}
			}
		})
		if full.Load() {
			return errTableFull
		}
		return nil
	},
	Traffic: func(args []vec.Vector, _ []int64) simhw.Traffic {
		return hashAggTraffic(args, 0)
	},
})

// atomicAgg folds v into the payload cell with the correct atomic for op.
// Min/max require payload cells initialized to the aggregate identity
// (HashTableInit's payloadInit parameter).
func atomicAgg(t []int64, p int, op AggOp, v int64) {
	switch op {
	case AggSum:
		atomic.AddInt64(&t[p], v)
	case AggCount:
		atomic.AddInt64(&t[p], 1)
	case AggMin:
		for {
			cur := atomic.LoadInt64(&t[p])
			if v >= cur {
				return
			}
			if atomic.CompareAndSwapInt64(&t[p], cur, v) {
				return
			}
		}
	case AggMax:
		for {
			cur := atomic.LoadInt64(&t[p])
			if v <= cur {
				return
			}
			if atomic.CompareAndSwapInt64(&t[p], cur, v) {
				return
			}
		}
	}
}

// hashAggTraffic is one atomic update per row plus a streaming pass over
// the first two arguments. All SIMT threads funnel through one memory
// controller; the SDK prices the spread over groups (static scheduling
// degrades sharply as groups cover more cache lines, Figure 9(c)).
func hashAggTraffic(args []vec.Vector, groups int64) simhw.Traffic {
	return simhw.Traffic{Atomics: int64(args[0].Len()), Seq: args[0].Bytes() + args[1].Bytes(), Groups: groups}
}

// HashExtract compacts the non-empty slots of a table into dense key and
// payload columns sorted by key, with the group count in outCount[0]. The
// key ordering makes extraction deterministic and aligns the outputs of
// multiple aggregation tables built over the same key column. Args:
// table(I64), outKeys(I64), outVals(I64), outCount(I64 len 1).
var HashExtract = register(&Kernel{
	Name:   "hash_extract",
	NArgs:  4,
	Source: "__kernel hash_extract(t, k, v, c) { /* compaction + key sort */ }",
	Fn: func(ctx *Ctx, args []vec.Vector, _ []int64) error {
		t, slots, err := tableOf(args[0])
		if err != nil {
			return err
		}
		outKeys, outVals, outCount := args[1].I64(), args[2].I64(), args[3].I64()
		if len(outCount) != 1 {
			return fmt.Errorf("%w: hash_extract count buffer must have 1 element", ErrBadArgs)
		}
		if len(outKeys) != len(outVals) {
			return fmt.Errorf("%w: hash_extract output lengths differ", ErrBadArgs)
		}
		at := 0
		for s := 0; s < slots; s++ {
			if t[2*s] == hashEmpty {
				continue
			}
			if at >= len(outKeys) {
				return fmt.Errorf("%w: hash_extract output holds %d groups, overflowed", ErrBadArgs, len(outKeys))
			}
			outKeys[at] = t[2*s]
			outVals[at] = t[2*s+1]
			at++
		}
		sortPairs(outKeys[:at], outVals[:at])
		outCount[0] = int64(at)
		return nil
	},
	Traffic: func(args []vec.Vector, _ []int64) simhw.Traffic {
		return simhw.Traffic{Seq: 2 * args[0].Bytes()}
	},
})

// sortPairs sorts parallel key/value slices by key ascending.
func sortPairs(keys, vals []int64) {
	sort.Sort(&pairSorter{keys: keys, vals: vals})
}

type pairSorter struct {
	keys, vals []int64
}

func (p *pairSorter) Len() int           { return len(p.keys) }
func (p *pairSorter) Less(i, j int) bool { return p.keys[i] < p.keys[j] }
func (p *pairSorter) Swap(i, j int) {
	p.keys[i], p.keys[j] = p.keys[j], p.keys[i]
	p.vals[i], p.vals[j] = p.vals[j], p.vals[i]
}
