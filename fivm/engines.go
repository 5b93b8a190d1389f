package fivm

import (
	"fmt"

	"repro/internal/m3"
	"repro/internal/query"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
)

// CountEngine maintains a COUNT (SUM(1)) query over a natural join,
// optionally grouped, using the Z ring. It is the simplest F-IVM
// instantiation: payloads are tuple multiplicities.
type CountEngine struct {
	*Engine[int64]
	Query *query.Query
}

// newCountEngine compiles a parsed SUM(1) query (with optional GROUP BY)
// into a Z-ring view tree.
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
	e := &CountEngine{Query: q}
	e.Engine = newEngine(Engine[int64]{
		kind:    KindCount,
		tree:    tree,
		codec:   ring.IntCodec{},
		info:    m3.RingInfo{Name: "long"},
		publish: func(Model) Model { return tableModel(e.Engine, func(v int64) float64 { return float64(v) }) },
	})
	return e, nil
}

// FloatEngine maintains one SUM aggregate of a product of per-attribute
// functions over a natural join using the float ring, e.g.
// SUM(B * sq(C)) or SUM(B * D) GROUP BY A.
type FloatEngine struct {
	*Engine[float64]
	Query *query.Query
}

// floatFuncs is the registry of factor functions for the float ring.
var floatFuncs = map[string]func(value.Value) float64{
	"":   ring.IdentityLift,
	"id": ring.IdentityLift,
	"sq": ring.SquareLift,
}

// newFloatEngine compiles a parsed single-aggregate query into a
// float-ring view tree. Each attribute may appear in at most one factor
// (write SUM(sq(B)) rather than SUM(B * B)); constant factors scale the
// aggregate. All factors are validated before the view tree is built.
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
			lifts[attr] = func(v value.Value) float64 { return scale * inner(v) }
			break
		}
	}
	tree, err := view.New(view.Spec[float64]{Ring: ring.Floats{}, Order: cfg.Order, Relations: q.VORels(), Lifts: lifts, Free: q.GroupBy})
	if err != nil {
		return nil, err
	}
	e := &FloatEngine{Query: q}
	e.Engine = newEngine(Engine[float64]{
		kind:    KindFloat,
		tree:    tree,
		codec:   ring.FloatCodec{},
		info:    m3.RingInfo{Name: "double"},
		publish: func(Model) Model { return tableModel(e.Engine, func(v float64) float64 { return v }) },
	})
	return e, nil
}

// CovarEngine maintains the scalar degree-m COVAR matrix over
// all-continuous attributes — the cheaper sibling of Analysis for
// workloads without categorical features.
type CovarEngine struct {
	*Engine[*ring.Covar]
	Ring  ring.CovarRing
	Attrs []string
}

// newCovarEngine builds a scalar COVAR engine over the given continuous
// attributes of the joined relations.
func newCovarEngine(cfg Config, _ *query.Query) (AnyEngine, error) {
	if len(cfg.Attrs) == 0 {
		return nil, fmt.Errorf("fivm: %s engine needs Attrs", KindCovar)
	}
	l, err := newLayout(cfg, cfg.Attrs)
	if err != nil {
		return nil, err
	}
	rg := ring.NewCovarRing(len(cfg.Attrs))
	lifts := make(map[string]ring.Lift[*ring.Covar], len(cfg.Attrs))
	for a, i := range l.index {
		lifts[a] = rg.Lift(i)
	}
	tree, err := view.New(view.Spec[*ring.Covar]{Ring: rg, Order: l.order, Relations: l.rels, Lifts: lifts})
	if err != nil {
		return nil, err
	}
	attrs := append([]string(nil), cfg.Attrs...)
	e := &CovarEngine{Ring: rg, Attrs: attrs}
	e.Engine = newEngine(Engine[*ring.Covar]{
		kind:  KindCovar,
		tree:  tree,
		codec: ring.CovarCodec{Ring: rg},
		clone: (*ring.Covar).Clone,
		info:  m3.RingInfo{Name: fmt.Sprintf("RingCofactor<double, %d>", len(attrs)), LiftIndexOf: l.liftIndexOf},
		publish: func(Model) Model {
			return &CovarModel{EngineKind: KindCovar, Attrs: attrs, Payload: e.Payload().Clone()}
		},
	})
	return e, nil
}

// Covar returns the compound aggregate, failing on the empty join per
// the package's result-access convention. Use Payload for the raw
// (possibly nil) value.
func (e *CovarEngine) Covar() (*ring.Covar, error) {
	p := e.Payload()
	if p == nil {
		return nil, fmt.Errorf("fivm: empty join result")
	}
	return p, nil
}
