package adamant

import (
	"errors"
	"fmt"

	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/kernels"
	"github.com/adamant-db/adamant/internal/task"
	"github.com/adamant-db/adamant/internal/vec"
)

// CmpOp is a comparison operator for filters.
type CmpOp int

// Comparison operators. Between is inclusive on both ends and uses the
// second operand of the filter call.
const (
	Lt CmpOp = iota
	Le
	Gt
	Ge
	Eq
	Ne
	Between
)

func (op CmpOp) kernel() kernels.CmpOp {
	switch op {
	case Lt:
		return kernels.CmpLt
	case Le:
		return kernels.CmpLe
	case Gt:
		return kernels.CmpGt
	case Ge:
		return kernels.CmpGe
	case Eq:
		return kernels.CmpEq
	case Ne:
		return kernels.CmpNe
	default:
		return kernels.CmpBetween
	}
}

// Port references the output of one plan step; feed it into later steps.
type Port struct {
	ref graph.PortRef
	ok  bool
}

// Plan is a query under construction: a primitive graph built through a
// fluent API, with every step annotated to the plan's current target
// device. Errors are deferred to Execute so building reads naturally.
type Plan struct {
	g        *graph.Graph
	dev      DeviceID
	devSet   bool
	firstErr error
}

// NewPlan starts an empty plan. Call On before adding steps.
func (e *Engine) NewPlan() *Plan {
	return &Plan{g: graph.New()}
}

// On sets the target device for subsequent steps, letting one plan span
// multiple co-processors (the runtime's router moves data between them).
func (p *Plan) On(dev DeviceID) *Plan {
	p.dev = dev
	p.devSet = true
	return p
}

func (p *Plan) fail(err error) Port {
	if p.firstErr == nil {
		p.firstErr = err
	}
	return Port{}
}

func (p *Plan) err() error {
	if p.firstErr != nil {
		return p.firstErr
	}
	if !p.devSet {
		return errors.New("adamant: plan has no target device; call On first")
	}
	return nil
}

func (p *Plan) graph() *graph.Graph { return p.g }

func (p *Plan) addTask(t *task.Task, inputs ...Port) Port {
	if p.firstErr != nil {
		return Port{}
	}
	if !p.devSet {
		return p.fail(errors.New("adamant: plan has no target device; call On first"))
	}
	refs := make([]graph.PortRef, len(inputs))
	for i, in := range inputs {
		if !in.ok {
			return p.fail(fmt.Errorf("adamant: %s input %d is an invalid port", t.Kind, i))
		}
		refs[i] = in.ref
	}
	id := p.g.AddTask(t, p.dev, refs...)
	return Port{ref: graph.PortRef{Node: id, Port: 0}, ok: true}
}

func (p *Plan) secondOutput(port Port) Port {
	if !port.ok {
		return Port{}
	}
	return Port{ref: graph.PortRef{Node: port.ref.Node, Port: 1}, ok: true}
}

func (p *Plan) portType(port Port) vec.Type {
	return p.g.Node(port.ref.Node).OutputSpec(port.ref.Port).Type
}

// ScanInt32 binds a host int32 column as a streamed pipeline input.
func (p *Plan) ScanInt32(name string, values []int32) Port {
	return p.scan(name, vec.FromInt32(values))
}

// ScanInt64 binds a host int64 column as a streamed pipeline input.
func (p *Plan) ScanInt64(name string, values []int64) Port {
	return p.scan(name, vec.FromInt64(values))
}

func (p *Plan) scan(name string, data vec.Vector) Port {
	if p.firstErr != nil {
		return Port{}
	}
	if !p.devSet {
		return p.fail(errors.New("adamant: plan has no target device; call On first"))
	}
	ref := p.g.AddScan(name, data, p.dev)
	return Port{ref: ref, ok: true}
}

// Filter evaluates col op v into a bitmap (FILTER_BITMAP). The column may
// be int32 or int64.
func (p *Plan) Filter(col Port, op CmpOp, v int64) Port {
	return p.typedFilter(col, op.kernel(), v, v, fmt.Sprintf("%v %d", op, v))
}

// FilterBetween keeps values in [lo, hi].
func (p *Plan) FilterBetween(col Port, lo, hi int64) Port {
	return p.typedFilter(col, kernels.CmpBetween, lo, hi, fmt.Sprintf("between %d and %d", lo, hi))
}

func (p *Plan) typedFilter(col Port, op kernels.CmpOp, lo, hi int64, label string) Port {
	if !col.ok {
		return p.fail(errors.New("adamant: filter on invalid port"))
	}
	t, err := task.NewFilterBitmapTyped(p.portType(col), op, lo, hi, label)
	if err != nil {
		return p.fail(err)
	}
	return p.addTask(t, col)
}

// FilterCols compares two columns element-wise (a op b) into a bitmap.
func (p *Plan) FilterCols(a, b Port, op CmpOp) Port {
	return p.addTask(task.NewFilterColCmp(op.kernel(), "colcmp"), a, b)
}

// And intersects two bitmaps.
func (p *Plan) And(a, b Port) Port { return p.addTask(task.NewBitmapAnd(), a, b) }

// Or unions two bitmaps.
func (p *Plan) Or(a, b Port) Port { return p.addTask(task.NewBitmapOr(), a, b) }

// Materialize compacts the rows a bitmap selects out of a value column
// (MATERIALIZE).
func (p *Plan) Materialize(values, bitmap Port) Port {
	if !values.ok {
		return p.fail(errors.New("adamant: Materialize on invalid port"))
	}
	t, err := task.NewMaterialize(p.portType(values), "materialize")
	if err != nil {
		return p.fail(err)
	}
	return p.addTask(t, values, bitmap)
}

// Gather fetches values at explicit positions (MATERIALIZE_POSITION).
func (p *Plan) Gather(values, positions Port) Port {
	if !values.ok {
		return p.fail(errors.New("adamant: Gather on invalid port"))
	}
	t, err := task.NewMaterializePosition(p.portType(values), "gather")
	if err != nil {
		return p.fail(err)
	}
	return p.addTask(t, values, positions)
}

// FilterPositions evaluates col op v into a position list sized by the
// selectivity estimate (FILTER_POSITION).
func (p *Plan) FilterPositions(col Port, op CmpOp, v int64, estimate float64) Port {
	return p.addTask(task.NewFilterPosition(op.kernel(), v, v, estimate, "filter positions"), col)
}

// Mul multiplies two int32 columns into an int64 column (MAP).
func (p *Plan) Mul(a, b Port) Port { return p.addTask(task.NewMapMul("mul"), a, b) }

// MulComplement computes a * (k - b) over two int32 columns (MAP), the
// fused form of price * (1 - discount) over fixed-point columns.
func (p *Plan) MulComplement(a, b Port, k int64) Port {
	return p.addTask(task.NewMapMulComplement(k, "mul-complement"), a, b)
}

// CastInt64 widens an int32 column to int64 (MAP).
func (p *Plan) CastInt64(a Port) Port { return p.addTask(task.NewMapCast("cast"), a) }

// SumInt64 reduces a column to its sum, folding across chunks (AGG_BLOCK).
func (p *Plan) SumInt64(a Port) Port { return p.agg(a, kernels.AggSum) }

// MinInt64 reduces a column to its minimum (AGG_BLOCK).
func (p *Plan) MinInt64(a Port) Port { return p.agg(a, kernels.AggMin) }

// MaxInt64 reduces a column to its maximum (AGG_BLOCK).
func (p *Plan) MaxInt64(a Port) Port { return p.agg(a, kernels.AggMax) }

func (p *Plan) agg(a Port, op kernels.AggOp) Port {
	if !a.ok {
		return p.fail(errors.New("adamant: aggregate on invalid port"))
	}
	t, err := task.NewAggBlock(op, p.portType(a), op.String())
	if err != nil {
		return p.fail(err)
	}
	return p.addTask(t, a)
}

// CountBits counts the set bits of a filter bitmap across chunks.
func (p *Plan) CountBits(bitmap Port) Port {
	return p.addTask(task.NewAggCountBits("count"), bitmap)
}

// PrefixSum computes the exclusive prefix sum of an int32 column
// (PREFIX_SUM, a pipeline breaker).
func (p *Plan) PrefixSum(a Port) Port { return p.addTask(task.NewPrefixSum("prefix sum"), a) }

// GroupBoundaries emits the 0/1 group-transition indicator of a sorted key
// column. The sorted-aggregation path assumes whole-column execution
// (OperatorAtATime): boundaries across chunk borders are not stitched.
func (p *Plan) GroupBoundaries(keys Port) Port {
	return p.addTask(task.NewGroupBoundaries("boundaries"), keys)
}

// GroupIndexes derives each row's group index from a sorted key column —
// the PREFIX_SUM input SortedGroupSum consumes.
func (p *Plan) GroupIndexes(keys Port) Port {
	return p.addTask(task.NewPrefixSumInclusive("group indexes"), p.GroupBoundaries(keys))
}

// BuildKeySet builds a hash set of keys (HASH_BUILD), the build side of a
// semi-join. capacity is the expected distinct key count.
func (p *Plan) BuildKeySet(keys Port, capacity int) Port {
	return p.addTask(task.NewHashBuildSet(capacity, "build set"), keys)
}

// BuildKeyIndex builds a hash table mapping unique keys to their global
// row positions (HASH_BUILD).
func (p *Plan) BuildKeyIndex(keys Port, totalRows int) Port {
	return p.addTask(task.NewHashBuildPK(totalRows, "build index"), keys)
}

// ExistsIn marks the probe rows whose key exists in the hash set — the
// EXISTS semi-join filter.
func (p *Plan) ExistsIn(keys, set Port) Port {
	return p.addTask(task.NewSemiJoinFilter("exists"), keys, set)
}

// NotExistsIn marks the probe rows whose key is absent from the hash set —
// the NOT EXISTS anti-join filter.
func (p *Plan) NotExistsIn(keys, set Port) Port {
	return p.addTask(task.NewBitmapNot(), p.ExistsIn(keys, set))
}

// AndNot keeps the rows of a that are not in b.
func (p *Plan) AndNot(a, b Port) Port { return p.addTask(task.NewBitmapAndNot(), a, b) }

// JoinPairs probes a key index and emits join pairs: probe-side positions
// and build-side payloads (HASH_PROBE). estimate is the expected match
// fraction.
func (p *Plan) JoinPairs(keys, index Port, estimate float64) (left, right Port) {
	l := p.addTask(task.NewHashProbe(estimate, "probe"), keys, index)
	return l, p.secondOutput(l)
}

// GroupSum aggregates an int64 value column by an int32 key column into a
// hash table (HASH_AGG). groupsHint is the expected distinct group count.
func (p *Plan) GroupSum(keys, values Port, groupsHint int) Port {
	return p.addTask(task.NewHashAgg(kernels.AggSum, groupsHint, "group sum"), keys, values)
}

// GroupCount counts rows per key into a hash table (HASH_AGG).
func (p *Plan) GroupCount(keys Port, groupsHint int) Port {
	return p.addTask(task.NewHashAggCount(groupsHint, "group count"), keys)
}

// GroupResults compacts a group hash table into dense key and aggregate
// columns.
func (p *Plan) GroupResults(table Port, maxGroups int) (keys, aggs Port) {
	k := p.addTask(task.NewHashExtract(maxGroups, "extract"), table)
	return k, p.secondOutput(k)
}

// SortedGroupSum aggregates values over sorted keys using a group-index
// prefix sum (SORT_AGG).
func (p *Plan) SortedGroupSum(keys, values, groupIndex Port, maxGroups int) (gk, ga Port) {
	k := p.addTask(task.NewSortAgg(kernels.AggSum, maxGroups, "sort agg"), keys, values, groupIndex)
	return k, p.secondOutput(k)
}

// Return names a port as a query result to retrieve to the host.
func (p *Plan) Return(name string, port Port) {
	if p.firstErr != nil {
		return
	}
	if !port.ok {
		p.fail(fmt.Errorf("adamant: Return(%q) on invalid port", name))
		return
	}
	p.g.MarkResult(name, port.ref)
}

// ReturnAvg names an AVG(col) query result. The plan computes it as
// SUM(col) + COUNT(col) partials finalized at retrieval into one Float64
// value — the split that keeps the aggregate mergeable across shards.
func (p *Plan) ReturnAvg(name string, col Port) {
	if p.firstErr != nil {
		return
	}
	if !col.ok {
		p.fail(fmt.Errorf("adamant: ReturnAvg(%q) on invalid port", name))
		return
	}
	sum := p.agg(col, kernels.AggSum)
	count := p.agg(col, kernels.AggCount)
	if !sum.ok || !count.ok {
		return
	}
	p.g.MarkResultAvg(name, sum.ref, count.ref)
}

// String summarizes the comparison operator.
func (op CmpOp) String() string { return op.kernel().String() }
