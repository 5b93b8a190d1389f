package view

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/vo"
)

// Spec configures a view tree.
type Spec[V any] struct {
	// Ring supplies the payload operations.
	Ring ring.Ring[V]
	// Order is the variable order; build one with vo.Build or supply a
	// hand-crafted one (it is validated).
	Order *vo.Order
	// Relations lists the input relations (must match the order's
	// anchored relations).
	Relations []vo.Rel
	// Lifts maps a variable to its lift function g_X, applied when the
	// variable is marginalized. Variables without an entry are summed
	// away without payload contribution (g_X = 1).
	Lifts map[string]ring.Lift[V]
	// Numeric lists the variables whose lifts read a value as a number
	// (continuous and binned features). A tuple whose value of one is
	// not finite or larger in magnitude than MaxNumeric is refused.
	Numeric []string
	// Free lists the group-by variables of the query: they are kept as
	// keys of the result instead of being marginalized.
	Free []string
}

// Node is one materialized view of the tree. Exported read-only through
// accessor methods for inspection, tests, and the M3 printer.
type Node[V any] struct {
	vn       *vo.Node
	parent   *Node[V]
	children []*Node[V]
	rels     []*source[V]
	keys     value.Schema // group-by schema of this node's view
	free     bool         // whether vn.Var is a group-by variable
	view     *relation.Map[V]

	// steps[d] is the node's evaluation plan for a delta entering at
	// part d (see parts), fixed at build time: deriving the schema
	// geometry per evaluation costs a dozen allocations, the dominant
	// cost of single-tuple deltas. lift is the lift of the node's
	// variable, nil for none. Root nodes additionally plan the
	// result-level step of propagate: the root's delta joined with the
	// other roots' views (resOthers) and projected to the result schema.
	steps     []*relation.StepPlan
	lift      ring.Lift[V]
	resStep   *relation.StepPlan
	resOthers []*Node[V]

	// buf recycles the node's delta view across ApplyDelta calls (see
	// deltaBuf).
	buf deltaBuf[V]
}

// planStep plans a step over parts of the given schemas for a delta
// entering at part d (relation.PlanStep) and registers on every other
// part the persistent join-key index the plan probes it on. The maps
// live as long as the tree (a bulk load resets them in place, which
// keeps registrations), and registration is cheap: an index
// materializes on its first probe, so a delta position no workload
// updates costs nothing.
func planStep[V any](schemas []value.Schema, parts []*relation.Map[V], d int, out value.Schema, liftAttr string) *relation.StepPlan {
	sp := relation.PlanStep(schemas, d, out, liftAttr)
	for j, m := range parts {
		if j != d {
			m.AddIndex(sp.IndexKey(j))
		}
	}
	return sp
}

// deltaBuf is the recycled output relation of one propagation step:
// each path node owns one for its delta view and the tree one for the
// result delta. A step fills it, commit Absorbs it and release empties
// it (entries back to its arena, payloads back to its slab when the
// ring keeps one), so the next call refills warm memory instead of
// allocating a table, slabs and a Map per node. Emptying costs the
// fill, not what the slab holds: a single-tuple delta after a batch
// hands back one slot.
//
// A buffer costs its capacity, not its fill — clearing and iterating a
// Go map are O(table) — so size tracks what the table was made for: the
// incoming delta's size (the allocation hint), which at an aggregating
// node is far above the fill, raised to the fill where a join fans out.
type deltaBuf[V any] struct {
	m    *relation.Map[V]
	size int
}

const (
	// bufSlack is how far apart (as a factor, past a floor of bufSlack
	// tuples) a buffer's size and the incoming delta's may be for the
	// buffer to be refilled rather than replaced: a single-tuple delta
	// must not clear a batch-sized table, nor a batch grow a tiny one.
	bufSlack = 8
	// bufKeep is the largest buffer kept between calls; anything bigger
	// (a bulk load's) is dropped on release, so no load-sized table
	// stays pinned while the tree sits idle.
	bufKeep = 4096
)

// take returns the empty relation to evaluate a step into for an
// incoming delta of n tuples.
func (b *deltaBuf[V]) take(schema value.Schema, n int) *relation.Map[V] {
	if b.m == nil || b.size > bufSlack*(n+bufSlack) || n > bufSlack*(b.size+bufSlack) {
		b.m, b.size = relation.NewSized[V](schema, n), 0
	}
	b.size = max(b.size, n)
	return b.m
}

// release empties the buffer once commit has absorbed it.
func (b *deltaBuf[V]) release() {
	if b.m == nil {
		return
	}
	if b.size = max(b.size, b.m.Len()); b.size > bufKeep {
		*b = deltaBuf[V]{}
		return
	}
	b.m.Reset()
}

// Var returns the variable this node marginalizes.
func (n *Node[V]) Var() string { return n.vn.Var }

// Keys returns the view's group-by schema.
func (n *Node[V]) Keys() value.Schema { return n.keys }

// Children returns the child nodes.
func (n *Node[V]) Children() []*Node[V] { return n.children }

// RelNames returns the names of relations anchored at this node.
func (n *Node[V]) RelNames() []string {
	out := make([]string, len(n.rels))
	for i, s := range n.rels {
		out[i] = s.name
	}
	return out
}

// View returns the materialized view relation. Callers must not mutate
// it.
func (n *Node[V]) View() *relation.Map[V] { return n.view }

type source[V any] struct {
	name   string
	schema value.Schema
	// numeric holds the schema positions of Spec.Numeric variables.
	numeric []int
	// data holds the relation's tuples, or is nil when the relation is
	// its anchor node's only operand: then no step reads the tuples, and
	// the anchor view is all the tree keeps of them (see stored).
	data   *relation.Map[V]
	anchor *Node[V]
	// path is the anchor-to-root node path, fixed at tree build; every
	// delta for this relation propagates along it.
	path []*Node[V]
	// delta is the relation's reusable delta buffer: ApplyUpdates Resets
	// and refills it each batch instead of allocating a fresh relation
	// per call. Views and source data that stored one of its payloads
	// hold it flagged shared, or their own copy of one the buffer owned,
	// and Reset drops the buffer's references, so they keep it after the
	// buffer itself is recycled. inBatch marks the buffer in-use while
	// one ApplyUpdates call groups its updates.
	delta   *relation.Map[V]
	inBatch bool
}

// Tree is a materialized view tree. It is not safe for concurrent use:
// callers must serialize all mutating calls.
type Tree[V any] struct {
	ring    ring.Ring[V]
	order   *vo.Order
	roots   []*Node[V]
	sources map[string]*source[V]
	lifts   map[string]ring.Lift[V]
	free    value.Schema
	result  *relation.Map[V]
	resBuf  deltaBuf[V] // the result delta's recycled buffer
	stats   Stats

	// Maintenance scratch, reused across calls under the tree's
	// single-writer contract (see the package doc): the relation order
	// buffer of ApplyUpdates and the propagation-steps buffer.
	updOrder  []string
	propSteps []*relation.Map[V]

	// one and negOne cache the ring's ±1, the payloads of single-tuple
	// inserts and deletes. Sharing one value across many stored tuples
	// is sound because a relation flags an entry inserted from a
	// caller's payload as shared and replaces, never mutates, it.
	one    V
	negOne V
}

// Stats counts maintenance work; useful for benchmarks and ablations.
type Stats struct {
	// Updates is the number of ApplyDelta calls.
	Updates int
	// DeltaTuples is the total number of delta tuples applied to input
	// relations and merged into views and the result: a function of the
	// update stream.
	DeltaTuples int
}

// New builds a view tree. The order is validated against the relations;
// free variables must exist in the order.
func New[V any](spec Spec[V]) (*Tree[V], error) {
	if spec.Ring == nil {
		return nil, fmt.Errorf("view: nil ring")
	}
	if spec.Order == nil {
		ord, err := vo.Build(spec.Relations)
		if err != nil {
			return nil, err
		}
		spec.Order = ord
	}
	if err := vo.Validate(spec.Order, spec.Relations); err != nil {
		return nil, err
	}
	t := &Tree[V]{
		ring:    spec.Ring,
		order:   spec.Order,
		sources: make(map[string]*source[V]),
		lifts:   spec.Lifts,
		free:    value.NewSchema(spec.Free...),
	}
	if t.lifts == nil {
		t.lifts = map[string]ring.Lift[V]{}
	}
	t.one = t.ring.One()
	t.negOne = t.ring.Neg(t.one)
	allVars := map[string]bool{}
	for _, root := range spec.Order.Roots {
		for _, v := range root.Vars() {
			allVars[v] = true
		}
	}
	for _, f := range spec.Free {
		if !allVars[f] {
			return nil, fmt.Errorf("view: free variable %s not in the variable order", f)
		}
	}
	for v := range t.lifts {
		if !allVars[v] {
			return nil, fmt.Errorf("view: lift for unknown variable %s", v)
		}
	}
	for _, v := range spec.Numeric {
		if !allVars[v] {
			return nil, fmt.Errorf("view: numeric variable %s not in the variable order", v)
		}
	}
	for _, r := range spec.Relations {
		if _, dup := t.sources[r.Name]; dup {
			return nil, fmt.Errorf("view: duplicate relation %s", r.Name)
		}
		src := &source[V]{name: r.Name, schema: r.Schema}
		for _, v := range spec.Numeric {
			if i := r.Schema.Index(v); i >= 0 {
				src.numeric = append(src.numeric, i)
			}
		}
		t.sources[r.Name] = src
	}
	for _, root := range spec.Order.Roots {
		t.roots = append(t.roots, t.buildNode(root, nil))
	}
	for _, s := range t.sources {
		s.path = pathOf(s.anchor)
	}
	resSchema := value.NewSchema()
	for _, r := range t.roots {
		resSchema = resSchema.Union(r.keys)
	}
	t.result = relation.New[V](resSchema)
	// Plan each root's result-level step (see propagate): the root's
	// delta at part 0, probing the other root views in t.roots order on
	// their registered indexes, projected to the result schema.
	for _, root := range t.roots {
		schemas := []value.Schema{root.keys}
		parts := []*relation.Map[V]{root.view}
		for _, r := range t.roots {
			if r != root {
				root.resOthers = append(root.resOthers, r)
				schemas = append(schemas, r.keys)
				parts = append(parts, r.view)
			}
		}
		root.resStep = planStep(schemas, parts, 0, resSchema, "")
	}
	return t, nil
}

func (t *Tree[V]) buildNode(vn *vo.Node, parent *Node[V]) *Node[V] {
	n := &Node[V]{vn: vn, parent: parent, free: t.free.Has(vn.Var)}
	for _, c := range vn.Children {
		n.children = append(n.children, t.buildNode(c, n))
	}
	for _, r := range vn.Rels {
		src := t.sources[r.Name]
		src.anchor = n
		n.rels = append(n.rels, src)
	}
	if len(n.children)+len(n.rels) > 1 {
		for _, src := range n.rels {
			src.data = relation.New[V](src.schema)
		}
	}
	// The view keys are the dependency set plus any free variables of
	// the subtree (including this node's own variable when free), which
	// must be kept as keys up to the root.
	keys := vn.Keys
	if n.free {
		keys = keys.Union(value.NewSchema(vn.Var))
	}
	for _, c := range n.children {
		keys = keys.Union(c.keys.Intersect(t.free))
	}
	n.keys = keys
	n.view = relation.New[V](keys)
	// Plan the node's evaluation, one plan per part a delta can enter
	// at: the join of the parts (children views then anchored relations,
	// the parts order) and the aggregation away of this node's variable.
	schemas := make([]value.Schema, 0, len(n.children)+len(n.rels))
	for _, c := range n.children {
		schemas = append(schemas, c.keys)
	}
	for _, r := range n.rels {
		schemas = append(schemas, r.schema)
	}
	liftAttr := ""
	if n.lift = t.lifts[vn.Var]; n.lift != nil {
		liftAttr = vn.Var
	}
	parts, _ := n.parts(nil, nil, nil)
	for d := range schemas {
		n.steps = append(n.steps, planStep(schemas, parts, d, keys, liftAttr))
	}
	return n
}

// Ring returns the tree's ring.
func (t *Tree[V]) Ring() ring.Ring[V] { return t.ring }

// Order returns the underlying variable order.
func (t *Tree[V]) Order() *vo.Order { return t.order }

// Roots returns the root nodes of the view forest.
func (t *Tree[V]) Roots() []*Node[V] { return t.roots }

// Lift returns the lift function registered for variable v (nil when
// none).
func (t *Tree[V]) Lift(v string) ring.Lift[V] { return t.lifts[v] }

// Source returns the current tuples of input relation name. Only a
// relation that shares its anchor node with a child view or another
// anchored relation keeps them: a step there probes them. A relation
// that is its anchor's only operand keeps none — its anchor view is its
// state — and Source reports false for it, as for an unknown name.
// Callers must not mutate the map, and its payloads are live: the next
// maintenance call may fold into them in place.
func (t *Tree[V]) Source(name string) (*relation.Map[V], bool) {
	s, ok := t.sources[name]
	if !ok || s.data == nil {
		return nil, false
	}
	return s.data, true
}

// Schema returns input relation name's schema.
func (t *Tree[V]) Schema(name string) (value.Schema, bool) {
	s, ok := t.sources[name]
	if !ok {
		return value.Schema{}, false
	}
	return s.schema, true
}

// RelationNames returns the input relation names, sorted.
func (t *Tree[V]) RelationNames() []string {
	out := make([]string, 0, len(t.sources))
	for n := range t.sources {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Result returns the maintained query result: a relation keyed by the
// free (group-by) variables. For queries without group-by the key schema
// is empty and the single payload is at the empty tuple. The tree owns
// the stored payloads and the next maintenance call may fold into them
// in place: read them before it, or take a relation.Map.Clone (a stable
// snapshot) or a deep copy.
func (t *Tree[V]) Result() *relation.Map[V] { return t.result }

// ResultPayload returns the payload of the empty key, i.e. the full
// aggregate of a query without group-by; it returns the ring zero when
// the result is empty. Like Result it is a live reference.
func (t *Tree[V]) ResultPayload() V {
	return t.result.GetOr(value.Tuple{}, t.ring.Zero())
}

// PartitionKey returns the attribute positions a shard map
// (internal/cluster) routes relation rel's updates by: the relation's
// anchor dependency set restricted to its schema, the join key through
// which the relation's effects flow upward, so tuples agreeing on it
// land on one shard. An empty key (relation fully marginalized at its
// anchor) means the shard map hashes the full tuple; ok is false when
// rel is not an input relation.
func (t *Tree[V]) PartitionKey(rel string) (keyIdx []int, ok bool) {
	src, found := t.sources[rel]
	if !found {
		return nil, false
	}
	return src.schema.MustProject(src.anchor.vn.Keys.Intersect(src.schema)), true
}

// SwapResult replaces the maintained result relation with m and returns
// the previous one. It is the low-level hook behind cross-shard model
// merging: a merger swaps a ring-merged relation in, publishes a model
// from it, and swaps the original back before any maintenance resumes.
// Views and sources are untouched; m must use the result schema.
func (t *Tree[V]) SwapResult(m *relation.Map[V]) *relation.Map[V] {
	old := t.result
	t.result = m
	return old
}

// Stats returns maintenance counters accumulated so far.
func (t *Tree[V]) Stats() Stats { return t.stats }

// parts appends to out the operand relations joined at node n —
// children views then anchored relations — with exclude (a child view or
// source data, nil for the one relation of a node that stores none)
// replaced by repl, and returns them with repl's position.
func (n *Node[V]) parts(out []*relation.Map[V], exclude, repl *relation.Map[V]) ([]*relation.Map[V], int) {
	for _, c := range n.children {
		out = append(out, c.view)
	}
	for _, r := range n.rels {
		out = append(out, r.data)
	}
	at := slices.Index(out, exclude)
	if at >= 0 {
		out[at] = repl
	}
	return out, at
}

// load is the one bulk-load path (Init, InitWeighted, ReadSnapshot),
// and it is the paper's definition of one: the empty database plus one
// delta per relation. It empties every source, view and the result in
// place — Reset keeps index registrations, and an index a probe already
// built stays maintained — then runs each relation through the
// maintenance path, smallest first: every step on that path iterates
// the relation being loaded, its delta and its larger side, so
// relation.Step indexes each smaller sibling for the call rather than
// materializing a persistent index on it (the choice lives in Step,
// made from what it observes). Steps of a
// load evaluate into the nodes' delta buffers like any other; release
// drops what is load-sized. data's relations carry the sources'
// schemas, except those named in views: a snapshot's anchor views (see
// ReadSnapshot), over their anchors' keys. They are only read, and the
// tree holds what it keeps of them flagged shared, so later maintenance
// never changes the caller's maps. Stats counts ApplyDelta calls, not
// loads.
func (t *Tree[V]) load(data map[string]*relation.Map[V], views map[string]bool) {
	for _, s := range t.sources {
		if s.data != nil {
			s.data.Reset()
		}
		for _, n := range s.path { // a view holds only what some path committed into it
			n.view.Reset()
		}
	}
	t.result.Reset()
	names := make([]string, 0, len(data))
	for name := range data {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if li, lj := data[names[i]].Len(), data[names[j]].Len(); li != lj {
			return li < lj
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		t.apply(t.sources[name], data[name], views[name], true)
	}
}

// Init bulk-loads the given tuples (payload One each, duplicates
// accumulate) as one delta per relation against the empty tree (see
// load). Any previous contents are discarded.
func (t *Tree[V]) Init(data map[string][]value.Tuple) error {
	loaded := make(map[string]*relation.Map[V], len(data))
	for name, tuples := range data {
		s, ok := t.sources[name]
		if !ok {
			return fmt.Errorf("view: Init: unknown relation %s", name)
		}
		for _, tp := range tuples {
			if err := s.check(tp); err != nil {
				return err
			}
		}
		loaded[name] = relation.FromTuples(t.ring, s.schema, tuples)
	}
	t.load(loaded, nil)
	return nil
}

// InitWeighted bulk-loads relations whose tuples carry explicit ring
// payloads (rather than multiplicity One). This is how non-counting
// interpretations load data — e.g. matrix chain multiplication stores
// matrix entries as the payloads of index tuples. Relations absent from
// data start empty. Any previous contents are discarded; the given
// relations are read, not aliased (see load).
func (t *Tree[V]) InitWeighted(data map[string]*relation.Map[V]) error {
	for name, m := range data {
		s, ok := t.sources[name]
		if !ok {
			return fmt.Errorf("view: InitWeighted: unknown relation %s", name)
		}
		if !m.Schema().Equal(s.schema) {
			return fmt.Errorf("view: InitWeighted: relation %s has schema %v, want %v", name, m.Schema(), s.schema)
		}
	}
	t.load(data, nil)
	return nil
}
