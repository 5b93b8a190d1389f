package fivm

import (
	"fmt"

	"repro/internal/m3"
	"repro/internal/ml"
	"repro/internal/query"
	"repro/internal/ring"
	"repro/internal/view"
	"repro/internal/vo"
)

// RangedCovarEngine maintains the scalar COVAR matrix with *ranged*
// payloads — the `RingCofactor<double, idx, cnt>` optimization of the
// paper's Figure 2d. Each view carries aggregates only for the
// attributes of its own subtree: leaf views hold degree-1 payloads,
// sizes grow toward the root, and only the root holds the full degree-m
// compound. Aggregate indexes are assigned in the view tree's
// structural (post-)order so every payload product combines adjacent
// ranges.
type RangedCovarEngine struct {
	*Engine[*ring.RangedCovar]
	Ring ring.RangedCovarRing
	// Attrs maps aggregate index -> attribute name (the structural
	// assignment order, not the caller's order).
	Attrs []string
}

// newRangedCovarEngine builds the engine over the continuous attributes
// cfg.Attrs of the joined relations.
func newRangedCovarEngine(cfg Config, _ *query.Query) (AnyEngine, error) {
	if len(cfg.Attrs) == 0 {
		return nil, fmt.Errorf("fivm: %s engine needs Attrs", KindRangedCovar)
	}
	l, err := newLayout(cfg, cfg.Attrs)
	if err != nil {
		return nil, err
	}
	// Reassign aggregate indexes in post-order of the variable order:
	// the order in which the engine's products combine subtree payloads,
	// so ranges always meet adjacently.
	var rg ring.RangedCovarRing
	lifts := map[string]ring.Lift[*ring.RangedCovar]{}
	var indexed []string
	var post func(n *vo.Node)
	post = func(n *vo.Node) {
		for _, c := range n.Children {
			post(c)
		}
		if _, ok := l.index[n.Var]; ok {
			l.index[n.Var] = len(indexed)
			lifts[n.Var] = rg.Lift(len(indexed))
			indexed = append(indexed, n.Var)
		}
	}
	for _, r := range l.order.Roots {
		post(r)
	}
	if len(indexed) != len(cfg.Attrs) {
		return nil, fmt.Errorf("fivm: indexed %d of %d aggregate attributes; attribute missing from the order", len(indexed), len(cfg.Attrs))
	}
	tree, err := view.New(view.Spec[*ring.RangedCovar]{Ring: rg, Order: l.order, Relations: l.rels, Lifts: lifts})
	if err != nil {
		return nil, err
	}
	e := &RangedCovarEngine{Ring: rg, Attrs: indexed}
	e.Engine = newEngine(Engine[*ring.RangedCovar]{
		kind:  KindRangedCovar,
		tree:  tree,
		codec: ring.RangedCovarCodec{},
		clone: (*ring.RangedCovar).Clone,
		info:  m3.RingInfo{Name: "RingCofactor<double, idx, cnt>", LiftIndexOf: l.liftIndexOf},
		publish: func(Model) Model {
			m := &CovarModel{EngineKind: KindRangedCovar, Attrs: e.Attrs}
			p, err := e.Covar()
			if err != nil {
				m.Err = err.Error()
			} else {
				m.Payload = p.Clone()
			}
			return m
		},
	})
	return e, nil
}

// Covar widens the root compound aggregate to a full Covar of degree
// len(Attrs), failing on the empty join per the package's result-access
// convention. Use Payload for the raw ranged (possibly nil) value.
func (e *RangedCovarEngine) Covar() (*ring.Covar, error) {
	p, err := e.Payload().ToCovar(len(e.Attrs))
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("fivm: empty join result")
	}
	return p, nil
}

// Sigma converts the payload into the solver's SigmaMatrix with columns
// in e.Attrs order.
func (e *RangedCovarEngine) Sigma() (*ml.SigmaMatrix, error) {
	p, err := e.Covar()
	if err != nil {
		return nil, err
	}
	feats := make([]ml.Feature, len(e.Attrs))
	for i, a := range e.Attrs {
		feats[i] = ml.Feature{Name: a, Index: i}
	}
	return ml.SigmaFromCovar(p, feats)
}
