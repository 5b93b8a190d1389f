package fivm

import (
	"fmt"
	"io"
	"math/bits"
	"strings"

	"repro/internal/ml"
	"repro/internal/query"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/vo"
)

// AnyEngine is the kind-independent surface every engine shares — the
// generic Engine[V] lifecycle with the payload type erased. It is what
// Open returns and what the serving layer hosts; type-assert to the
// concrete engine (*Analysis, *CountEngine, ...) for typed accessors.
//
// Concurrency contract: BuildDelta is safe to call concurrently with
// maintenance (it only reads immutable tree metadata), and every
// published Model is an isolated deep copy. Everything else — Apply,
// ApplyBuilt, PublishModel, Stats, the snapshot and partial methods —
// must be called from a single writer goroutine (or before any
// concurrent use starts).
type AnyEngine interface {
	// Kind identifies the engine instantiation.
	Kind() Kind
	// Init bulk-loads the initial database and evaluates all views.
	Init(data map[string][]value.Tuple) error
	// Apply maintains the views under tuple-level updates.
	Apply(ups []view.Update) error
	// BuildDelta prebuilds a delta relation for rel from raw updates,
	// merging same-tuple updates under the ring addition as it goes.
	// Safe concurrently with maintenance.
	BuildDelta(rel string, ups []view.Update) (Delta, error)
	// ApplyBuilt applies a delta from BuildDelta.
	ApplyBuilt(rel string, d Delta) error
	// PublishModel builds an immutable model of the current result,
	// warm-starting from the previously published one (nil at first).
	PublishModel(prev Model) Model
	// RelationNames returns the input relation names, sorted.
	RelationNames() []string
	// Arity returns the attribute count of input relation rel.
	Arity(rel string) (int, bool)
	// Stats exposes maintenance counters.
	Stats() view.Stats
	// ViewTree renders the maintained view tree.
	ViewTree() string
	// M3 renders the per-view maintenance code.
	M3() string
	// WriteSnapshot persists the input relations.
	WriteSnapshot(w io.Writer) error
	// ReadSnapshot restores input relations and re-evaluates views.
	ReadSnapshot(r io.Reader) error
	// WritePartial serializes the maintained result relation for
	// cross-shard merging.
	WritePartial(w io.Writer) error
	// MergePartials publishes a Model ring-merged from per-shard
	// partials written by WritePartial.
	MergePartials(parts []io.Reader) (Model, error)
	// PartitionKey returns the join-key positions a cluster shard map
	// routes rel's updates by (see Engine.PartitionKey).
	PartitionKey(rel string) ([]int, bool)
}

// Config declares a workload for Open: either a SQL query over the
// declared relations (count/float kinds) or a declarative
// relations+features/attrs spec (analysis/covar/join kinds). Kind may
// be left empty to infer the engine from which fields are set.
type Config struct {
	// Kind forces a specific engine; empty infers one (see Open).
	Kind Kind
	// Query is SQL-subset text compiled against Relations, e.g.
	// "SELECT A, SUM(1) FROM R NATURAL JOIN S GROUP BY A".
	Query string
	// Relations declares the input relations of the join.
	Relations []RelationSpec
	// Features configures an Analysis engine: the degree-m ring has one
	// index per feature.
	Features []FeatureSpec
	// Attrs configures a CovarEngine's aggregate attributes.
	Attrs []string
	// Label optionally names the continuous feature the Analysis'
	// published AnalysisModel predicts; empty disables ridge fitting in
	// published models (explicit Analysis.Ridge calls are unaffected).
	Label string
	// Ridge configures the published model's solver; the zero value
	// means ml.DefaultRidgeConfig().
	Ridge ml.RidgeConfig
	// Order optionally supplies a hand-built variable order; when nil
	// one is derived with the greedy heuristic.
	Order *vo.Order
}

// fieldSet is a set of Config's kind-specific fields. Relations and
// Order apply to every kind and are not in it.
type fieldSet uint8

const (
	fieldQuery fieldSet = 1 << iota
	fieldFeatures
	fieldAttrs
	fieldLabel
	fieldRidge
)

// fieldNames names the fieldSet bits, lowest first.
var fieldNames = [...]string{"Query", "Features", "Attrs", "Label", "Ridge"}

// fields returns the kind-specific fields cfg sets.
func (cfg Config) fields() fieldSet {
	var s fieldSet
	for i, set := range [...]bool{cfg.Query != "", len(cfg.Features) > 0, len(cfg.Attrs) > 0, cfg.Label != "", cfg.Ridge != (ml.RidgeConfig{})} {
		if set {
			s |= 1 << i
		}
	}
	return s
}

// String joins the set's field names with "and".
func (s fieldSet) String() string {
	var names []string
	for i, n := range fieldNames {
		if s&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return strings.Join(names, " and ")
}

// kindSpec is one engine kind: the kind-specific Config fields its
// builder consumes, and the builder. q is the parsed Query, nil when
// none is set.
type kindSpec struct {
	uses  fieldSet
	build func(cfg Config, q *query.Query) (AnyEngine, error)
}

// kinds is every engine Open can build. Adding a kind is adding an
// entry.
var kinds = map[Kind]kindSpec{
	KindAnalysis: {fieldFeatures | fieldLabel | fieldRidge, newAnalysis},
	KindCount:    {fieldQuery, newCountEngine},
	KindFloat:    {fieldQuery, newFloatEngine},
	KindCovar:    {fieldAttrs, newCovarEngine},
	KindJoin:     {0, newJoinEngine},
}

// Open is the only way to build an engine: it compiles cfg into the
// right one. Kind selects explicitly; when empty it is inferred — a
// Query yields KindCount for SUM(1) and KindFloat otherwise, Features
// yield KindAnalysis, Attrs yield KindCovar, and bare Relations yield
// KindJoin. A set field the kind does not consume is an error, never
// silently dropped.
func Open(cfg Config) (AnyEngine, error) {
	if len(cfg.Relations) == 0 {
		return nil, fmt.Errorf("fivm: Open needs at least one relation")
	}
	// A workload is one of Query, Features, or Attrs; accepting several
	// and resolving by precedence would silently build a different
	// engine than one of the fields describes.
	set := cfg.fields()
	if w := set & (fieldQuery | fieldFeatures | fieldAttrs); bits.OnesCount8(uint8(w)) > 1 {
		return nil, fmt.Errorf("fivm: ambiguous config: %s describe different engines; set at most one", w)
	}
	var q *query.Query
	if cfg.Query != "" {
		cat := NewCatalog()
		for _, r := range cfg.Relations {
			if err := cat.AddRelation(r.Name, r.Attrs...); err != nil {
				return nil, err
			}
		}
		var err error
		if q, err = Parse(cat, cfg.Query); err != nil {
			return nil, err
		}
	}
	kind := cfg.Kind
	if kind == "" {
		switch {
		case q != nil && isCountQuery(q):
			kind = KindCount
		case q != nil:
			kind = KindFloat
		case set&fieldFeatures != 0:
			kind = KindAnalysis
		case set&fieldAttrs != 0:
			kind = KindCovar
		default:
			kind = KindJoin
		}
	}
	spec, ok := kinds[kind]
	if !ok {
		return nil, fmt.Errorf("fivm: unknown engine kind %q", kind)
	}
	if extra := set &^ spec.uses; extra != 0 {
		return nil, fmt.Errorf("fivm: %s not consumed by the %s engine", extra, kind)
	}
	eng, err := spec.build(cfg, q)
	if err != nil {
		return nil, err
	}
	return eng, nil
}

// isCountQuery reports whether the single aggregate is SUM(1).
func isCountQuery(q *query.Query) bool {
	if len(q.Aggregates) != 1 {
		return false
	}
	fs := q.Aggregates[0].Factors
	return len(fs) == 1 && fs[0].IsConst && fs[0].Const == 1
}

// layout is the preamble the builders over cfg.Relations share: the
// view-layer relations, the variable order (cfg.Order, else the greedy
// heuristic's), and each aggregate attribute's payload index.
type layout struct {
	rels  []vo.Rel
	order *vo.Order
	index map[string]int
}

// newLayout indexes aggs in the order given, checking that each occurs
// in some relation and is listed once.
func newLayout(cfg Config, aggs []string) (*layout, error) {
	l := &layout{rels: make([]vo.Rel, len(cfg.Relations)), order: cfg.Order, index: make(map[string]int, len(aggs))}
	attrs := value.NewSchema()
	for i, r := range cfg.Relations {
		l.rels[i] = vo.Rel{Name: r.Name, Schema: value.NewSchema(r.Attrs...)}
		attrs = attrs.Union(l.rels[i].Schema)
	}
	for i, a := range aggs {
		if !attrs.Has(a) {
			return nil, fmt.Errorf("fivm: attribute %s not in any relation", a)
		}
		if _, dup := l.index[a]; dup {
			return nil, fmt.Errorf("fivm: attribute %s listed twice", a)
		}
		l.index[a] = i
	}
	if l.order == nil {
		var err error
		if l.order, err = vo.Build(l.rels); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// liftIndexOf is the layout's m3.RingInfo.LiftIndexOf.
func (l *layout) liftIndexOf(v string) int {
	if i, ok := l.index[v]; ok {
		return i
	}
	return -1
}
