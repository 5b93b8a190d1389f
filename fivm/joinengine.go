package fivm

import (
	"repro/internal/m3"
	"repro/internal/query"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/vo"
)

// JoinEngine maintains the full natural-join result itself through the
// view tree, using the relational ring: every attribute is lifted to the
// singleton relation {x -> 1}, so the root payload is the join result as
// one relational value mapping result tuples to multiplicities. The
// intermediate views keep the result factorized; only the root holds the
// flat listing.
//
// The paper uses this interpretation ("factorized conjunctive query
// evaluation") to make its core performance point: maintaining model
// gradients over a join is faster than maintaining the join, because the
// join is larger and full of repeating values. Ablation A2 measures
// exactly that, pitting JoinEngine against CovarEngine on one stream.
type JoinEngine struct {
	*Engine[ring.RelVal]
	// ResultAttrs names the attribute order of result tuples, following
	// the variable order's marginalization sequence (deepest variable
	// first).
	ResultAttrs []string
}

// newJoinEngine builds a join-maintenance engine over the given
// relations.
func newJoinEngine(cfg Config, _ *query.Query) (AnyEngine, error) {
	l, err := newLayout(cfg, nil)
	if err != nil {
		return nil, err
	}
	var rg ring.Relational
	lifts := map[string]ring.Lift[ring.RelVal]{}
	// Lift every variable to its one-hot singleton; the marginalization
	// order (post-order over the VO) fixes the tuple layout in the
	// concatenated keys.
	var attrs []string
	var post func(n *vo.Node)
	post = func(n *vo.Node) {
		for _, c := range n.Children {
			post(c)
		}
		attrs = append(attrs, n.Var)
		lifts[n.Var] = func(v value.Value) ring.RelVal {
			return ring.RelVal{value.Tuple{v}.Encode(): 1}
		}
	}
	for _, r := range l.order.Roots {
		post(r)
	}
	tree, err := view.New(view.Spec[ring.RelVal]{Ring: rg, Order: l.order, Relations: l.rels, Lifts: lifts})
	if err != nil {
		return nil, err
	}
	e := &JoinEngine{ResultAttrs: attrs}
	e.Engine = newEngine(Engine[ring.RelVal]{
		kind:  KindJoin,
		tree:  tree,
		codec: ring.RelValCodec{},
		clone: ring.RelVal.Clone,
		info:  m3.RingInfo{Name: "relation"},
		publish: func(Model) Model {
			frozen := e.Engine.ClonePayload()
			return &TableModel{
				EngineKind: KindJoin,
				build:      func() ([]TableRow, float64) { return sortedRelRows(frozen) },
			}
		},
	})
	return e, nil
}

// Result returns the maintained join result: a relational value mapping
// each result tuple (decodable with value.DecodeTuple; attribute order
// is NOT ResultAttrs order but the per-tuple lift application order —
// use Tuples for a decoded view). It shadows the generic Engine.Result
// (the result relation) with the join-shaped view.
func (e *JoinEngine) Result() ring.RelVal { return e.Engine.Payload() }

// Size returns the number of distinct tuples in the maintained join.
func (e *JoinEngine) Size() int { return len(e.Engine.Payload()) }

// Tuples decodes the maintained join result into tuples with
// multiplicities, in unspecified order. Per the package convention an
// empty join yields empty slices, not an error.
func (e *JoinEngine) Tuples() ([]value.Tuple, []float64) {
	res := e.Result()
	ts := make([]value.Tuple, 0, len(res))
	ms := make([]float64, 0, len(res))
	for k, m := range res {
		ts = append(ts, value.MustDecodeTuple(k))
		ms = append(ms, m)
	}
	return ts, ms
}
