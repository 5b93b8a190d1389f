package fivm

import (
	"fmt"

	"repro/internal/ring"
	"repro/internal/view"
	"repro/internal/vo"
)

// pureRing hides a ring's Scratch extension behind the plain
// ring.Ring interface, so every merge, join and aggregation of a tree
// built over it takes the pure Add/Mul path.
type pureRing[V any] struct{ ring.Ring[V] }

// purify swaps the (still empty) engine's view tree for one over the
// same order, relations, lifts and free variables whose ring is pure.
// Everything else of the engine — codec, publish hook — reaches the
// tree through e.tree and follows.
func purify[V any](e *Engine[V]) error {
	old := e.tree
	var rels []vo.Rel
	for _, name := range old.RelationNames() {
		schema, _ := old.Schema(name)
		rels = append(rels, vo.Rel{Name: name, Schema: schema})
	}
	lifts := map[string]ring.Lift[V]{}
	for _, root := range old.Order().Roots {
		for _, v := range root.Vars() {
			if l := old.Lift(v); l != nil {
				lifts[v] = l
			}
		}
	}
	tree, err := view.New(view.Spec[V]{
		Ring:      pureRing[V]{old.Ring()},
		Order:     old.Order(),
		Relations: rels,
		Lifts:     lifts,
		Free:      old.Result().Schema().Attrs(),
	})
	if err != nil {
		return err
	}
	e.tree = tree
	return nil
}

// KindFields reports, for every kind in Open's table, which of the
// kind-specific Config fields it consumes.
func KindFields() map[Kind]map[string]bool {
	out := make(map[Kind]map[string]bool, len(kinds))
	for k, spec := range kinds {
		out[k] = make(map[string]bool, len(fieldNames))
		for i, name := range fieldNames {
			out[k][name] = spec.uses&(1<<i) != 0
		}
	}
	return out
}

// CommitWithPureAdd turns a freshly opened engine into the reference
// the ownership tests compare against: the same engine, committing
// every delta with the pure ring Add instead of in place.
func CommitWithPureAdd(e AnyEngine) error {
	switch x := e.(type) {
	case *Engine[*ring.RelCovar]:
		return purify(x)
	case *Engine[int64]:
		return purify(x)
	case *Engine[float64]:
		return purify(x)
	case *Engine[*ring.RangedCovar]:
		return purify(x)
	}
	return fmt.Errorf("fivm: unknown engine type %T", e)
}
