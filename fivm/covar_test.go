package fivm_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/fivm"
	"repro/internal/dataset"
	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/vo"
)

// analysisRef is the reference the covar engine is checked against: an
// analysis engine over the same relations with attrs as continuous
// features. Its relational COVAR ring (RelCovar) shares no kernel with
// the covar engine's ranged one.
func analysisRef(t *testing.T, rels []fivm.RelationSpec, attrs []string) *fivm.Engine[*ring.RelCovar] {
	t.Helper()
	feats := make([]fivm.FeatureSpec, len(attrs))
	for i, a := range attrs {
		feats[i] = fivm.FeatureSpec{Attr: a}
	}
	return open[*fivm.Engine[*ring.RelCovar]](t, fivm.Config{Relations: rels, Features: feats})
}

// sameCovar fails unless every statistic the covar engine's published
// model holds in its caller's order equals the reference engine's
// within a relative 1e-9.
func sameCovar(t *testing.T, when string, eng *fivm.Engine[*ring.RangedCovar], ref *fivm.Engine[*ring.RelCovar]) {
	t.Helper()
	want := ref.Payload()
	m := eng.PublishModel(nil).(*fivm.CovarModel)
	got := m.Payload
	if want == nil || got == nil {
		if want != nil || got != nil {
			t.Fatalf("%s: engine %v, reference %v: one join empty, the other not", when, got, want)
		}
		return
	}
	near := func(a, b float64) bool {
		return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	if !near(got.Count(), want.CountScalar()) {
		t.Fatalf("%s: count %v, reference %v", when, got.Count(), want.CountScalar())
	}
	for i, a := range m.Attrs {
		if w := want.Sum(i).Scalar(); !near(got.Sum(i), w) {
			t.Fatalf("%s: SUM(%s) %v, reference %v", when, a, got.Sum(i), w)
		}
		for j := i; j < len(m.Attrs); j++ {
			if w := want.Prod(i, j).Scalar(); !near(got.Prod(i, j), w) {
				t.Fatalf("%s: SUM(%s*%s) %v, reference %v", when, a, m.Attrs[j], got.Prod(i, j), w)
			}
		}
	}
}

func relationSpecs(db *dataset.Database) []fivm.RelationSpec {
	rels := make([]fivm.RelationSpec, len(db.Relations))
	for i, r := range db.Relations {
		rels[i] = fivm.RelationSpec{Name: r.Name, Attrs: r.Attrs}
	}
	return rels
}

// TestRangedEngineMatchesFullEngine maintains the Retailer COVAR
// statistics with the covar engine's ranged payloads and with the
// analysis engine's full-degree relational ones over an update stream;
// every aggregate must agree, in the caller's attribute order, at every
// batch boundary.
func TestRangedEngineMatchesFullEngine(t *testing.T) {
	db := dataset.Retailer(dataset.RetailerConfig{
		Locations: 8, Dates: 15, Items: 30, InventoryRows: 400, Zips: 6, Seed: 77,
	})
	rels := relationSpecs(db)
	attrs := []string{"inventoryunits", "prize", "avghhi", "maxtemp"}
	eng := open[*fivm.Engine[*ring.RangedCovar]](t, fivm.Config{Relations: rels, Attrs: attrs})
	ref := analysisRef(t, rels, attrs)
	data := db.TupleMap()
	if err := eng.Init(data); err != nil {
		t.Fatal(err)
	}
	if err := ref.Init(data); err != nil {
		t.Fatal(err)
	}
	sameCovar(t, "after init", eng, ref)
	if eng.Payload() == nil {
		t.Fatal("empty join after init")
	}

	st, err := dataset.NewStream(db, dataset.StreamConfig{
		Relation: "Inventory", Total: 400, DeleteRatio: 0.3, Seed: 78,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bulk := range st.Bulks(80) {
		if err := eng.Apply(bulk); err != nil {
			t.Fatal(err)
		}
		if err := ref.Apply(bulk); err != nil {
			t.Fatal(err)
		}
		sameCovar(t, "after bulk", eng, ref)
	}
	if m := eng.PublishModel(nil).(*fivm.CovarModel); strings.Join(m.Attrs, ",") != strings.Join(attrs, ",") {
		t.Fatalf("published model over %v, want %v", m.Attrs, attrs)
	}
}

// TestCovarFavoritaMatchesFullDegree runs the covar engine on the one
// schema whose view tree has three-child nodes (V@date and V@store),
// where a delta entering at the last child multiplies three ranges in
// a row: the shape in which a lift-index assignment that is not the
// tree's post-order would break adjacency. A tenth of every relation is
// held back from the load and applied tuple by tuple, relations
// interleaved, against the analysis engine's full-degree payloads.
func TestCovarFavoritaMatchesFullDegree(t *testing.T) {
	db := dataset.Favorita(dataset.FavoritaConfig{Stores: 4, Items: 20, Dates: 15, SalesRows: 300, Seed: 5})
	rels := relationSpecs(db)
	attrs := []string{"transactions", "unit_sales", "oilprice"}
	eng := open[*fivm.Engine[*ring.RangedCovar]](t, fivm.Config{Relations: rels, Attrs: attrs})
	ref := analysisRef(t, rels, attrs)
	wide := 0
	var walk func(n *view.Node[*ring.RangedCovar])
	walk = func(n *view.Node[*ring.RangedCovar]) {
		wide = max(wide, len(n.Children()))
		for _, c := range n.Children() {
			walk(c)
		}
	}
	for _, r := range eng.Tree().Roots() {
		walk(r)
	}
	if wide < 3 {
		t.Fatalf("no view has three children:\n%s", eng.ViewTree())
	}

	load := map[string][]value.Tuple{}
	held := map[string][]value.Tuple{}
	most := 0
	for _, r := range db.Relations {
		keep := len(r.Tuples) * 9 / 10
		load[r.Name], held[r.Name] = r.Tuples[:keep], r.Tuples[keep:]
		most = max(most, len(held[r.Name]))
	}
	if err := eng.Init(load); err != nil {
		t.Fatal(err)
	}
	if err := ref.Init(load); err != nil {
		t.Fatal(err)
	}
	sameCovar(t, "after the load", eng, ref)
	for i := 0; i < most; i++ {
		for _, r := range db.Relations {
			if i >= len(held[r.Name]) {
				continue
			}
			up := []view.Update{{Rel: r.Name, Tuple: held[r.Name][i], Mult: 1}}
			if err := eng.Apply(up); err != nil {
				t.Fatal(err)
			}
			if err := ref.Apply(up); err != nil {
				t.Fatal(err)
			}
			sameCovar(t, fmt.Sprintf("after %s tuple %d", r.Name, i), eng, ref)
		}
	}
	if eng.Payload() == nil {
		t.Fatal("empty join: the comparison is vacuous")
	}
}

// keptRels is openRels with S over R's attributes and one more: R then
// shares its anchor with S's subtree, so the tree keeps its tuples.
func keptRels() []fivm.RelationSpec {
	return []fivm.RelationSpec{
		{Name: "R", Attrs: []string{"A", "B"}},
		{Name: "S", Attrs: []string{"A", "B", "C"}},
	}
}

// snapshotOf writes the snapshot of a tree over r and rels whose
// relation R holds one tuple, (a1, 1), weighted p. Over openRels, R is
// its anchor's only operand, so the stream carries R's anchor view: p
// at key a1. Over keptRels it carries R's tuple.
func snapshotOf[V any](t *testing.T, rels []fivm.RelationSpec, r ring.Ring[V], codec ring.Codec[V], p V) []byte {
	t.Helper()
	vrels := make([]vo.Rel, len(rels))
	for i, rel := range rels {
		vrels[i] = vo.Rel{Name: rel.Name, Schema: value.NewSchema(rel.Attrs...)}
	}
	tree, err := view.New(view.Spec[V]{Ring: r, Relations: vrels})
	if err != nil {
		t.Fatal(err)
	}
	m := relation.New[V](vrels[0].Schema)
	m.Set(value.T("a1", 1), p)
	if err := tree.InitWeighted(map[string]*relation.Map[V]{"R": m}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.WriteSnapshot(&buf, codec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRangedEngineErrors: the covar engine rejects a misconfiguration
// at Open, and on restore a snapshot whose payloads do not cover the
// range where they load — a source payload that is not a scalar, and
// an anchor view payload outside its anchor's lift range — instead of
// panicking on a range mismatch while the load propagates.
func TestRangedEngineErrors(t *testing.T) {
	covar := func(rels []fivm.RelationSpec, attrs ...string) fivm.Config {
		return fivm.Config{Kind: fivm.KindCovar, Relations: rels, Attrs: attrs}
	}
	if _, err := fivm.Open(covar(openRels())); err == nil {
		t.Error("empty attrs accepted")
	}
	if _, err := fivm.Open(covar(openRels(), "Z")); err == nil {
		t.Error("unknown attr accepted")
	}
	if _, err := fivm.Open(covar(openRels(), "B", "B")); err == nil {
		t.Error("duplicate attr accepted")
	}

	var rr ring.RangedCovarRing
	codec := ring.RangedCovarCodec{Degree: 2}
	// Over keptRels, R's tuples are source payloads, scalars; over
	// openRels, R's anchor view covers B's lift range, [0,1).
	kept, viewed := covar(keptRels(), "B", "C"), covar(openRels(), "B", "D")
	for _, c := range []struct {
		name string
		cfg  fivm.Config
		want string
	}{
		{"tuples", kept, "source payload covers attribute range [1,2), this engine's is [0,0)"},
		{"anchor view", viewed, "anchor view of R payload covers attribute range [1,2), this engine's is [0,1)"},
	} {
		eng := open[*fivm.Engine[*ring.RangedCovar]](t, c.cfg)
		snap := snapshotOf(t, c.cfg.Relations, rr, codec, rr.Lift(1)(nil, value.Int(3)))
		if err := eng.ReadSnapshot(bytes.NewReader(snap)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s snapshot with a payload of the wrong range: err = %v, want %q", c.name, err, c.want)
		}
	}
	// Each stream loads into a covar engine once its payload has the
	// range the engine expects there.
	for name, c := range map[string]struct {
		cfg fivm.Config
		p   *ring.RangedCovar
	}{
		"tuples":      {kept, rr.One()},
		"anchor view": {viewed, rr.Lift(0)(nil, value.Int(3))},
	} {
		snap := snapshotOf(t, c.cfg.Relations, rr, codec, c.p)
		if err := open[*fivm.Engine[*ring.RangedCovar]](t, c.cfg).ReadSnapshot(bytes.NewReader(snap)); err != nil {
			t.Errorf("%s snapshot: %v", name, err)
		}
	}
}

// TestCovarPartialOfAnotherDegreeIsRejected: a partial result written by
// a covar engine of one degree and merged by one of another is an error
// naming both, in either direction — never a merged model with silently
// zero statistics, nor one whose rendering fails. The codec tag
// carries the degree and fails at the header, and so does the
// degree-free tag the former rangedcovar kind wrote.
func TestCovarPartialOfAnotherDegreeIsRejected(t *testing.T) {
	partial := func(attrs ...string) []byte {
		eng := open[*fivm.Engine[*ring.RangedCovar]](t, fivm.Config{Relations: openRels(), Attrs: attrs})
		if err := eng.Init(toyData()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.WritePartial(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	tag := func(s string) []byte { return append([]byte{byte(len(s))}, s...) }
	retag := func(part []byte, m int) []byte {
		old := tag(fmt.Sprintf("ring.RangedCovarCodec[m=%d]", m))
		if !bytes.Contains(part, old) {
			t.Fatalf("partial header lacks tag %q", old)
		}
		return bytes.Replace(part, old, tag("ring.RangedCovarCodec"), 1)
	}
	narrow, wide := partial("B", "D"), partial("B", "C", "D")
	for _, c := range []struct {
		name  string
		part  []byte
		attrs []string
		want  []string
	}{
		{"degree 2 into 3", narrow, []string{"B", "C", "D"}, []string{"[m=2]", "[m=3]"}},
		{"degree 3 into 2", wide, []string{"B", "D"}, []string{"[m=3]", "[m=2]"}},
		{"untagged degree 2 into 3", retag(narrow, 2), []string{"B", "C", "D"}, []string{"codec ring.RangedCovarCodec,", "[m=3]"}},
	} {
		merger := open[*fivm.Engine[*ring.RangedCovar]](t, fivm.Config{Relations: openRels(), Attrs: c.attrs})
		m, err := merger.MergePartials([]io.Reader{bytes.NewReader(c.part)})
		if err == nil {
			t.Errorf("%s: merged to %s", c.name, modelJSON(m))
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: err = %v, want it to name %s", c.name, err, w)
			}
		}
	}
}
