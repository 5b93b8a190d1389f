package fivm

import (
	"fmt"
	"io"

	"repro/internal/m3"
	"repro/internal/query"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/vo"
)

// newCountEngine compiles a parsed SUM(1) query (with optional GROUP BY)
// into a Z-ring view tree, an *Engine[int64]: a COUNT over a natural
// join, the simplest F-IVM instantiation, whose payloads are tuple
// multiplicities.
func newCountEngine(cfg Config, q *query.Query) (AnyEngine, error) {
	if q == nil {
		return nil, fmt.Errorf("fivm: %s engine needs a Query", KindCount)
	}
	if !isCountQuery(q) {
		return nil, fmt.Errorf("fivm: count engine needs SUM(1) as its one aggregate, got %v", q.Aggregates)
	}
	tree, err := view.New(view.Spec[int64]{Ring: ring.Ints{}, Order: cfg.Order, Relations: q.VORels(), Free: q.GroupBy})
	if err != nil {
		return nil, err
	}
	var e *Engine[int64]
	e = newEngine(Engine[int64]{
		kind:    KindCount,
		tree:    tree,
		codec:   ring.IntCodec{},
		info:    m3.RingInfo{Name: "long"},
		publish: func() Model { return tableModel(e, func(v int64) float64 { return float64(v) }) },
	})
	return e, nil
}

// floatFuncs is the registry of factor functions for the float ring.
var floatFuncs = map[string]ring.Lift[float64]{
	"":   ring.IdentityLift,
	"id": ring.IdentityLift,
	"sq": ring.SquareLift,
}

// newFloatEngine compiles a parsed single-aggregate query into a
// float-ring view tree, an *Engine[float64]: one SUM aggregate of a
// product of per-attribute functions over a natural join, e.g.
// SUM(B * sq(C)) or SUM(B * D) GROUP BY A. Each attribute may appear
// in at most one factor (write SUM(sq(B)) rather than SUM(B * B));
// constant factors scale the aggregate. All factors are validated
// before the view tree is built.
func newFloatEngine(cfg Config, q *query.Query) (AnyEngine, error) {
	if q == nil {
		return nil, fmt.Errorf("fivm: %s engine needs a Query", KindFloat)
	}
	if len(q.Aggregates) != 1 {
		return nil, fmt.Errorf("fivm: float engine needs exactly one aggregate, got %d", len(q.Aggregates))
	}
	agg := q.Aggregates[0]
	lifts := map[string]ring.Lift[float64]{}
	scale := 1.0
	for _, f := range agg.Factors {
		if f.IsConst {
			scale *= f.Const
			continue
		}
		fn, ok := floatFuncs[f.Func]
		if !ok {
			return nil, fmt.Errorf("fivm: unknown factor function %q (have id, sq)", f.Func)
		}
		if _, dup := lifts[f.Attr]; dup {
			return nil, fmt.Errorf("fivm: attribute %s appears in two factors; compose functions instead", f.Attr)
		}
		lifts[f.Attr] = fn
	}
	if scale != 1 {
		if len(lifts) == 0 {
			return nil, fmt.Errorf("fivm: pure-constant aggregate SUM(%v): use SUM(1) with the count engine and scale externally", scale)
		}
		// Fold the constant into one of the lifts by wrapping it.
		for attr, fn := range lifts {
			inner := fn
			lifts[attr] = func(dst float64, v value.Value) float64 { return scale * inner(dst, v) }
			break
		}
	}
	tree, err := view.New(view.Spec[float64]{Ring: ring.Floats{}, Order: cfg.Order, Relations: q.VORels(), Lifts: lifts, Free: q.GroupBy})
	if err != nil {
		return nil, err
	}
	var e *Engine[float64]
	e = newEngine(Engine[float64]{
		kind:    KindFloat,
		tree:    tree,
		codec:   ring.FloatCodec{},
		info:    m3.RingInfo{Name: "double"},
		publish: func() Model { return tableModel(e, func(v float64) float64 { return v }) },
	})
	return e, nil
}

// newCovarEngine builds the covar kind, an *Engine[*ring.RangedCovar]:
// the scalar degree-m COVAR matrix over the given continuous attributes
// — the cheaper sibling of the analysis kind for workloads without
// categorical features — with the ranged payloads of the paper's Figure
// 2d, `RingCofactor<double, idx, cnt>`: each view carries aggregates only
// for the attributes of its own subtree, so leaf views hold degree-1
// payloads and only the root holds the full degree. Lift indexes
// follow the variable order's post-order, the order the tree's
// products combine subtree payloads, so ranges always meet adjacently;
// the published CovarModel reads in cfg.Attrs order through one
// permutation, perm[i] being Attrs[i]'s lift index.
func newCovarEngine(cfg Config, _ *query.Query) (AnyEngine, error) {
	if len(cfg.Attrs) == 0 {
		return nil, fmt.Errorf("fivm: %s engine needs Attrs", KindCovar)
	}
	l, err := newLayout(cfg, cfg.Attrs)
	if err != nil {
		return nil, err
	}
	var rg ring.RangedCovarRing
	lifts := make(map[string]ring.Lift[*ring.RangedCovar], len(cfg.Attrs))
	perm := make([]int, len(cfg.Attrs))
	anchors := make(map[string]liftRange, len(l.rels))
	var post func(n *vo.Node)
	post = func(n *vo.Node) {
		lo := len(lifts)
		for _, c := range n.Children {
			post(c)
		}
		if i, ok := l.index[n.Var]; ok {
			perm[i] = len(lifts)
			l.index[n.Var] = len(lifts)
			lifts[n.Var] = rg.Lift(len(lifts))
		}
		r := liftRange{lo, len(lifts) - lo}
		if r.n == 0 {
			r.start = 0 // a payload of no lifted attribute is a scalar, One's range
		}
		for _, rel := range n.Rels {
			anchors[rel.Name] = r
		}
	}
	for _, r := range l.order.Roots {
		post(r)
	}
	if len(lifts) != len(cfg.Attrs) {
		return nil, fmt.Errorf("fivm: indexed %d of %d aggregate attributes; attribute missing from the order", len(lifts), len(cfg.Attrs))
	}
	inv := make([]int, len(perm)) // inv[perm[i]] = i: lift order from Attrs order
	for i, g := range perm {
		inv[g] = i
	}
	tree, err := view.New(view.Spec[*ring.RangedCovar]{Ring: rg, Order: l.order, Relations: l.rels, Lifts: lifts, Numeric: cfg.Attrs})
	if err != nil {
		return nil, err
	}
	attrs := append([]string(nil), cfg.Attrs...)
	codec := covarCodec{RangedCovarCodec: ring.RangedCovarCodec{Degree: len(attrs)}, anchors: anchors, what: "source"}
	result := codec
	result.want, result.what = liftRange{0, len(attrs)}, "partial result"
	var e *Engine[*ring.RangedCovar]
	e = newEngine(Engine[*ring.RangedCovar]{
		kind:        KindCovar,
		tree:        tree,
		codec:       codec,
		resultCodec: result,
		clone:       (*ring.RangedCovar).Clone,
		info:        m3.RingInfo{Name: "RingCofactor<double, idx, cnt>", LiftIndexOf: l.liftIndexOf},
		publish: func() Model {
			// One copy per publish: the partial permutes it back when read.
			wide := e.Payload().Widen(perm)
			inLiftOrder := func() *ring.RangedCovar { return wide.Widen(inv) }
			return &CovarModel{EngineKind: KindCovar, Attrs: attrs, Payload: wide, frozenPartial: e.payloadPartial(inLiftOrder)}
		},
	})
	return e, nil
}

// covarCodec is the covar engine's payload codec: the ranged codec bound
// to the engine's degree, which also checks where each payload belongs
// — a source payload (snapshots) is a scalar, an anchor view's
// (snapshots, ForAnchor) covers its anchor subtree's lift range, a
// result payload (partials) covers exactly [0, m).
type covarCodec struct {
	ring.RangedCovarCodec
	// anchors is each relation's anchor subtree lift range.
	anchors map[string]liftRange
	// want is the range every payload decoded must cover; what names
	// those payloads in errors.
	want liftRange
	what string
}

// liftRange is the lift index range [start, start+n) a payload covers.
type liftRange struct{ start, n int }

// ForAnchor returns the codec of relation rel's anchor view payloads
// (see view.Tree.ReadSnapshot).
func (c covarCodec) ForAnchor(rel string) ring.Codec[*ring.RangedCovar] {
	c.want, c.what = c.anchors[rel], "anchor view of "+rel
	return c
}

// Decode reads one payload and rejects one whose range does not belong
// where the stream puts it: merged or loaded, it would panic in the
// ring's range checks or widen to the wrong statistics.
func (c covarCodec) Decode(r io.Reader) (*ring.RangedCovar, error) {
	p, err := c.RangedCovarCodec.Decode(r)
	if err != nil || p == nil {
		return p, err
	}
	if w := c.want; p.Start != w.start || p.N != w.n {
		return nil, fmt.Errorf("fivm: %s payload covers attribute range [%d,%d), this engine's is [%d,%d)", c.what, p.Start, p.Start+p.N, w.start, w.start+w.n)
	}
	return p, nil
}
