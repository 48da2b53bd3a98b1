package sql

import (
	"fmt"
	"slices"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/graph"
	"github.com/adamant-db/adamant/internal/kernels"
	"github.com/adamant-db/adamant/internal/storage"
	"github.com/adamant-db/adamant/internal/task"
	"github.com/adamant-db/adamant/internal/vec"
)

// PlanConfig parameterizes SQL-to-primitive-graph lowering.
type PlanConfig struct {
	// Catalog resolves table and column names.
	Catalog *storage.Catalog
	// Device annotates every node (single-device plans; multi-device
	// placement goes through the plan-builder API instead).
	Device device.ID
}

// Plan lowers a parsed query onto ADAMANT's primitives: conjunctive
// filters become FILTER_BITMAP chains (a lower and an upper bound on one
// column merge into one range filter), IN subqueries become
// HASH_BUILD(set) + semi-join filters, SELECT expressions become
// MATERIALIZE + MAP chains, and aggregates become AGG_BLOCK or
// HASH_AGG/HASH_EXTRACT pipelines. Every hash table is sized by its key
// column's storage.Table.MaxDistinct.
func Plan(q *Query, cfg PlanConfig) (*graph.Graph, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("sql: PlanConfig.Catalog is required")
	}
	g := graph.New()
	l := &lowerer{g: g, cfg: cfg}
	if err := l.lowerQuery(q); err != nil {
		return nil, err
	}
	return g, nil
}

type lowerer struct {
	g   *graph.Graph
	cfg PlanConfig
}

// block is the lowering state of one query block: its table, the scan
// ports created so far (one per referenced column), and the combined
// filter bitmap (invalid port when the block has no WHERE clause).
type block struct {
	table  *storage.Table
	scans  map[string]graph.PortRef
	bitmap graph.PortRef
	hasBM  bool
}

func (l *lowerer) resolveTable(name string) (*storage.Table, error) {
	t, err := l.cfg.Catalog.Table(name)
	if err != nil {
		return nil, fmt.Errorf("sql: %w", err)
	}
	return t, nil
}

// scan returns (creating once) the scan port for a column of the block's
// table, validating its type.
func (l *lowerer) scan(b *block, col string) (graph.PortRef, error) {
	if ref, ok := b.scans[col]; ok {
		return ref, nil
	}
	data, err := b.table.Column(col)
	if err != nil {
		return graph.PortRef{}, fmt.Errorf("sql: %w", err)
	}
	if data.Type() != vec.Int32 {
		return graph.PortRef{}, fmt.Errorf("sql: column %s.%s has type %s; the dialect supports int32 columns", b.table.Name, col, data.Type())
	}
	ref := l.g.AddScan(b.table.Name+"."+col, data, l.cfg.Device)
	b.scans[col] = ref
	return ref, nil
}

func cmpKernel(op CmpOp) kernels.CmpOp {
	return [...]kernels.CmpOp{kernels.CmpLt, kernels.CmpLe, kernels.CmpGt, kernels.CmpGe, kernels.CmpEq, kernels.CmpNe}[op]
}

// lowerBlock lowers a block's FROM/WHERE into scans plus a combined filter
// bitmap.
func (l *lowerer) lowerBlock(q *Query) (*block, error) {
	table, err := l.resolveTable(q.Table)
	if err != nil {
		return nil, err
	}
	b := &block{table: table, scans: make(map[string]graph.PortRef)}
	where := mergeRanges(q.Where)

	// Lower IN subqueries first: their build pipelines must precede the
	// pipelines that consume the key sets, and pipeline execution order
	// follows node creation order.
	sets := make(map[int]graph.PortRef)
	for i, cond := range where {
		if cond.Kind != CondIn {
			continue
		}
		set, err := l.lowerKeySet(cond.Sub)
		if err != nil {
			return nil, err
		}
		sets[i] = set
	}

	for i, cond := range where {
		bm, err := l.lowerCond(b, cond, sets[i])
		if err != nil {
			return nil, err
		}
		if b.hasBM {
			n := l.g.AddTask(task.NewBitmapAnd(), l.cfg.Device, b.bitmap, bm)
			b.bitmap = l.g.Out(n, 0)
		} else {
			b.bitmap = bm
			b.hasBM = true
		}
	}
	return b, nil
}

// mergeRanges folds a lower bound (>, >=) and an upper bound (<, <=) on
// one column of a conjunctive block into one inclusive BETWEEN, in the
// first one's place. A strict bound at the int64 extremes stays unmerged.
// When nothing merges, where is returned as it is.
func mergeRanges(where []Cond) []Cond {
	out, copied := where, false
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			lo, hi, ok := rangePair(out[i], out[j])
			if !ok {
				continue
			}
			if !copied {
				out, copied = slices.Clone(where), true
			}
			out[i] = Cond{Kind: CondBetween, Col: out[i].Col, Lo: lo, Hi: hi}
			out = slices.Delete(out, j, j+1)
			break
		}
	}
	return out
}

// rangePair reports the inclusive range of a lower and an upper bound on
// one column, given in either order.
func rangePair(a, b Cond) (lo, hi int64, ok bool) {
	if a.Kind != CondCmp || b.Kind != CondCmp || a.Col != b.Col {
		return 0, 0, false
	}
	if a.Op == OpLt || a.Op == OpLe {
		a, b = b, a
	}
	if (a.Op != OpGt && a.Op != OpGe) || (b.Op != OpLt && b.Op != OpLe) {
		return 0, 0, false
	}
	lo, _, okLo := kernels.InclusiveRange(cmpKernel(a.Op), a.Value, 0)
	_, hi, okHi := kernels.InclusiveRange(cmpKernel(b.Op), b.Value, 0)
	return lo, hi, okLo && okHi
}

// lowerCond lowers one condition to a bitmap port. For CondIn, set is the
// pre-lowered key-set port.
func (l *lowerer) lowerCond(b *block, cond Cond, set graph.PortRef) (graph.PortRef, error) {
	switch cond.Kind {
	case CondCmp, CondBetween:
		col, err := l.scan(b, cond.Col)
		if err != nil {
			return graph.PortRef{}, err
		}
		op, lo, hi := cmpKernel(cond.Op), cond.Value, cond.Value
		if cond.Kind == CondBetween {
			op, lo, hi = kernels.CmpBetween, cond.Lo, cond.Hi
		}
		n := l.g.AddTask(task.NewFilterBitmap(op, lo, hi, cond.String()), l.cfg.Device, col)
		return l.g.Out(n, 0), nil

	case CondColCmp:
		a, err := l.scan(b, cond.Col)
		if err != nil {
			return graph.PortRef{}, err
		}
		c2, err := l.scan(b, cond.Col2)
		if err != nil {
			return graph.PortRef{}, err
		}
		n := l.g.AddTask(task.NewFilterColCmp(cmpKernel(cond.Op), cond.String()), l.cfg.Device, a, c2)
		return l.g.Out(n, 0), nil

	case CondIn:
		col, err := l.scan(b, cond.Col)
		if err != nil {
			return graph.PortRef{}, err
		}
		n := l.g.AddTask(task.NewSemiJoinFilter(cond.String()), l.cfg.Device, col, set)
		bm := l.g.Out(n, 0)
		if cond.Negated {
			inv := l.g.AddTask(task.NewBitmapNot(), l.cfg.Device, bm)
			bm = l.g.Out(inv, 0)
		}
		return bm, nil

	case CondOr:
		var combined graph.PortRef
		for i, branch := range cond.Or {
			if branch.Kind == CondIn || branch.Kind == CondOr {
				return graph.PortRef{}, fmt.Errorf("sql: OR branches must be simple comparisons")
			}
			bm, err := l.lowerCond(b, branch, graph.PortRef{})
			if err != nil {
				return graph.PortRef{}, err
			}
			if i == 0 {
				combined = bm
				continue
			}
			n := l.g.AddTask(task.NewBitmapOr(), l.cfg.Device, combined, bm)
			combined = l.g.Out(n, 0)
		}
		return combined, nil

	default:
		return graph.PortRef{}, fmt.Errorf("sql: unsupported condition %v", cond)
	}
}

// lowerKeySet lowers an IN subquery into a HASH_BUILD(set) pipeline and
// returns the hash-table port.
func (l *lowerer) lowerKeySet(sub *Query) (graph.PortRef, error) {
	b, err := l.lowerBlock(sub)
	if err != nil {
		return graph.PortRef{}, err
	}
	keyCol := sub.Items[0].Expr.Col
	keys, err := l.scan(b, keyCol)
	if err != nil {
		return graph.PortRef{}, err
	}
	if b.hasBM {
		m, err := task.NewMaterialize(vec.Int32, keyCol)
		if err != nil {
			return graph.PortRef{}, err
		}
		n := l.g.AddTask(m, l.cfg.Device, keys, b.bitmap)
		keys = l.g.Out(n, 0)
	}
	distinct, err := b.table.MaxDistinct(keyCol)
	if err != nil {
		return graph.PortRef{}, fmt.Errorf("sql: %w", err)
	}
	build := l.g.AddTask(task.NewHashBuildSet(distinct, "build("+keyCol+" set)"), l.cfg.Device, keys)
	return l.g.Out(build, 0), nil
}

// value materializes a column through the block's bitmap (when present).
func (l *lowerer) value(b *block, col string) (graph.PortRef, error) {
	ref, err := l.scan(b, col)
	if err != nil {
		return graph.PortRef{}, err
	}
	if !b.hasBM {
		return ref, nil
	}
	m, err := task.NewMaterialize(vec.Int32, col)
	if err != nil {
		return graph.PortRef{}, err
	}
	n := l.g.AddTask(m, l.cfg.Device, ref, b.bitmap)
	return l.g.Out(n, 0), nil
}

// exprInt64 lowers a value expression to an int64 column port.
func (l *lowerer) exprInt64(b *block, e *Expr) (graph.PortRef, error) {
	switch e.Kind {
	case ExprColumn:
		v, err := l.value(b, e.Col)
		if err != nil {
			return graph.PortRef{}, err
		}
		n := l.g.AddTask(task.NewMapCast(e.Col), l.cfg.Device, v)
		return l.g.Out(n, 0), nil
	case ExprMul, ExprMulComplement:
		a, err := l.value(b, e.A)
		if err != nil {
			return graph.PortRef{}, err
		}
		c, err := l.value(b, e.B)
		if err != nil {
			return graph.PortRef{}, err
		}
		t := task.NewMapMul(e.String())
		if e.Kind == ExprMulComplement {
			t = task.NewMapMulComplement(e.K, e.String())
		}
		n := l.g.AddTask(t, l.cfg.Device, a, c)
		return l.g.Out(n, 0), nil
	default:
		return graph.PortRef{}, fmt.Errorf("sql: unsupported expression %s", e)
	}
}

func aggKernelOp(a AggFunc) (kernels.AggOp, error) {
	switch a {
	case AggSum:
		return kernels.AggSum, nil
	case AggMin:
		return kernels.AggMin, nil
	case AggMax:
		return kernels.AggMax, nil
	case AggCount:
		return kernels.AggCount, nil
	default:
		return 0, fmt.Errorf("sql: unsupported aggregate")
	}
}

func (l *lowerer) lowerQuery(q *Query) error {
	b, err := l.lowerBlock(q)
	if err != nil {
		return err
	}

	hasAgg := false
	for _, item := range q.Items {
		if item.Agg != AggNone {
			hasAgg = true
		}
	}

	switch {
	case q.GroupBy != "":
		return l.lowerGrouped(q, b)
	case hasAgg:
		return l.lowerScalarAggs(q, b)
	default:
		return l.lowerProjection(q, b)
	}
}

// lowerProjection returns materialized columns (or expressions) directly.
func (l *lowerer) lowerProjection(q *Query, b *block) error {
	for _, item := range q.Items {
		if item.Expr.Kind == ExprColumn {
			v, err := l.value(b, item.Expr.Col)
			if err != nil {
				return err
			}
			l.g.MarkResult(item.Alias, v)
			continue
		}
		v, err := l.exprInt64(b, item.Expr)
		if err != nil {
			return err
		}
		l.g.MarkResult(item.Alias, v)
	}
	return nil
}

// lowerScalarAggs lowers ungrouped aggregates to AGG_BLOCK reductions.
func (l *lowerer) lowerScalarAggs(q *Query, b *block) error {
	for _, item := range q.Items {
		if item.Agg == AggNone {
			return fmt.Errorf("sql: %q mixes bare columns with aggregates without GROUP BY", item.Alias)
		}
		if item.Agg == AggCount && item.Expr == nil {
			if err := l.lowerCountStar(q, b, item.Alias); err != nil {
				return err
			}
			continue
		}
		op, err := aggKernelOp(item.Agg)
		if err != nil {
			return err
		}
		v, err := l.exprInt64(b, item.Expr)
		if err != nil {
			return err
		}
		aggT, err := task.NewAggBlock(op, vec.Int64, item.Alias)
		if err != nil {
			return err
		}
		n := l.g.AddTask(aggT, l.cfg.Device, v)
		l.g.MarkResult(item.Alias, l.g.Out(n, 0))
	}
	return nil
}

// lowerCountStar counts qualifying rows: popcount of the filter bitmap, or
// a COUNT reduction over any column when the query has no WHERE clause.
func (l *lowerer) lowerCountStar(q *Query, b *block, alias string) error {
	if b.hasBM {
		n := l.g.AddTask(task.NewAggCountBits(alias), l.cfg.Device, b.bitmap)
		l.g.MarkResult(alias, l.g.Out(n, 0))
		return nil
	}
	cols := b.table.ColumnNames()
	if len(cols) == 0 {
		return fmt.Errorf("sql: COUNT(*) on empty table %s", q.Table)
	}
	ref, err := l.scan(b, cols[0])
	if err != nil {
		return err
	}
	aggT, err := task.NewAggBlock(kernels.AggCount, vec.Int32, alias)
	if err != nil {
		return err
	}
	n := l.g.AddTask(aggT, l.cfg.Device, ref)
	l.g.MarkResult(alias, l.g.Out(n, 0))
	return nil
}

// lowerGrouped lowers GROUP BY queries to HASH_AGG pipelines, one shared
// group-key column feeding one hash table per aggregate, each extracted to
// dense columns.
func (l *lowerer) lowerGrouped(q *Query, b *block) error {
	keys, err := l.value(b, q.GroupBy)
	if err != nil {
		return err
	}
	groupsHint, err := b.table.MaxDistinct(q.GroupBy)
	if err != nil {
		return fmt.Errorf("sql: %w", err)
	}

	var keyResult string
	type pending struct {
		alias string
		table graph.NodeID
	}
	var aggs []pending

	for _, item := range q.Items {
		if item.Agg == AggNone {
			if item.Expr.Kind != ExprColumn || item.Expr.Col != q.GroupBy {
				return fmt.Errorf("sql: %q is not the GROUP BY column nor an aggregate", item.Alias)
			}
			keyResult = item.Alias
			continue
		}
		var tbl graph.NodeID
		switch {
		case item.Agg == AggCount && item.Expr == nil:
			tbl = l.g.AddTask(task.NewHashAggCount(groupsHint, item.Alias), l.cfg.Device, keys)
		default:
			op, err := aggKernelOp(item.Agg)
			if err != nil {
				return err
			}
			if op == kernels.AggCount {
				return fmt.Errorf("sql: COUNT over an expression is not supported; use COUNT(*)")
			}
			v, err := l.exprInt64(b, item.Expr)
			if err != nil {
				return err
			}
			tbl = l.g.AddTask(task.NewHashAgg(op, groupsHint, item.Alias), l.cfg.Device, keys, v)
		}
		aggs = append(aggs, pending{alias: item.Alias, table: tbl})
	}
	if len(aggs) == 0 {
		return fmt.Errorf("sql: GROUP BY without aggregates is not supported")
	}

	for i, a := range aggs {
		ext := l.g.AddTask(task.NewHashExtract(groupsHint, "extract "+a.alias), l.cfg.Device, l.g.Out(a.table, 0))
		if i == 0 && keyResult != "" {
			l.g.MarkResult(keyResult, l.g.Out(ext, 0))
		}
		l.g.MarkResult(a.alias, l.g.Out(ext, 1))
	}
	return nil
}
