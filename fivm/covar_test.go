package fivm_test

import (
	"bytes"
	"encoding/binary"
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
func analysisRef(t *testing.T, rels []fivm.RelationSpec, attrs []string) *fivm.Analysis {
	t.Helper()
	feats := make([]fivm.FeatureSpec, len(attrs))
	for i, a := range attrs {
		feats[i] = fivm.FeatureSpec{Attr: a}
	}
	return open[*fivm.Analysis](t, fivm.Config{Relations: rels, Features: feats})
}

// sameCovar fails unless every statistic the covar engine hands out in
// its caller's order equals the reference engine's within a relative
// 1e-9.
func sameCovar(t *testing.T, when string, eng *fivm.CovarEngine, ref *fivm.Analysis) {
	t.Helper()
	want := ref.Payload()
	got, err := eng.Covar()
	if want == nil || err != nil {
		if want != nil || err == nil {
			t.Fatalf("%s: engine %v (%v), reference %v: one join empty, the other not", when, got, err, want)
		}
		return
	}
	near := func(a, b float64) bool {
		return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	if !near(got.Count(), want.CountScalar()) {
		t.Fatalf("%s: count %v, reference %v", when, got.Count(), want.CountScalar())
	}
	for i, a := range eng.Attrs {
		if w := want.Sum(i).Scalar(); !near(got.Sum(i), w) {
			t.Fatalf("%s: SUM(%s) %v, reference %v", when, a, got.Sum(i), w)
		}
		for j := i; j < len(eng.Attrs); j++ {
			if w := want.Prod(i, j).Scalar(); !near(got.Prod(i, j), w) {
				t.Fatalf("%s: SUM(%s*%s) %v, reference %v", when, a, eng.Attrs[j], got.Prod(i, j), w)
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
	eng := open[*fivm.CovarEngine](t, fivm.Config{Relations: rels, Attrs: attrs})
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

	// The published model and Sigma read in the caller's order too.
	m := eng.PublishModel(nil).(*fivm.CovarModel)
	if want, _ := eng.Covar(); !m.Payload.Equal(want) || strings.Join(m.Attrs, ",") != strings.Join(attrs, ",") {
		t.Fatalf("published %v over %v, want %v over %v", m.Payload, m.Attrs, want, attrs)
	}
	sigma, err := eng.Sigma()
	if err != nil {
		t.Fatal(err)
	}
	if sigma.Dim() != len(attrs) {
		t.Errorf("sigma dim = %d", sigma.Dim())
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
	eng := open[*fivm.CovarEngine](t, fivm.Config{Relations: rels, Attrs: attrs})
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

// snapshotOf writes the snapshot of a tree over r whose relation R holds
// one tuple weighted p. R is its anchor's only operand, so the stream
// carries R's anchor view: p at key a1.
func snapshotOf[V any](t *testing.T, r ring.Ring[V], codec ring.Codec[V], p V) []byte {
	t.Helper()
	rels := []vo.Rel{
		{Name: "R", Schema: value.NewSchema("A", "B")},
		{Name: "S", Schema: value.NewSchema("A", "C", "D")},
	}
	tree, err := view.New(view.Spec[V]{Ring: r, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	m := relation.New[V](rels[0].Schema)
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

// fullDegreeCodec writes ranged payloads in the format covar engines
// wrote before their payloads were ranged: tagged with the degree, each
// payload a presence flag, then c, s and the packed upper triangle of Q
// over the full degree. Only ring.DecodeFullCovar still reads it.
type fullDegreeCodec struct{ ring.RangedCovarCodec }

func (c fullDegreeCodec) Tag() string { return fmt.Sprintf("ring.CovarCodec[m=%d]", c.Degree) }

func (c fullDegreeCodec) Encode(w io.Writer, v *ring.RangedCovar) error {
	if v == nil {
		_, err := w.Write([]byte{0})
		return err
	}
	vals := []float64{v.C}
	for i := 0; i < c.Degree; i++ {
		vals = append(vals, v.Sum(i))
	}
	for i := 0; i < c.Degree; i++ {
		for j := i; j < c.Degree; j++ {
			vals = append(vals, v.Prod(i, j))
		}
	}
	buf := []byte{1}
	for _, x := range vals {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x))
	}
	_, err := w.Write(buf)
	return err
}

// v2SnapshotOf writes, in snapshot version 2 (every relation as its
// tuples, no form byte), the stream snapshotOf's tree wrote before R was
// stored as its anchor view: R holds a1,1 weighted p, S is empty.
func v2SnapshotOf[V any](t *testing.T, codec ring.Codec[V], p V) []byte {
	t.Helper()
	var b bytes.Buffer
	str := func(s string) {
		b.Write(binary.AppendUvarint(nil, uint64(len(s))))
		b.WriteString(s)
	}
	b.WriteString("FIVMSNAP\x02")
	str(codec.(interface{ Tag() string }).Tag())
	b.WriteByte(2)
	str("R")
	b.WriteByte(2)
	str("A")
	str("B")
	b.WriteByte(1)
	str(value.T("a1", 1).Encode())
	if err := codec.Encode(&b, p); err != nil {
		t.Fatal(err)
	}
	str("S")
	b.WriteByte(3)
	str("A")
	str("C")
	str("D")
	b.WriteByte(0)
	return b.Bytes()
}

// TestRangedEngineErrors: the covar engine rejects a misconfiguration
// at Open, and on restore a snapshot whose payloads do not cover the
// range where they load — a source payload that is not a scalar, in
// today's ranged format and in the full-degree one earlier covar
// engines wrote, and an anchor view payload outside its anchor's lift
// range — instead of panicking on a range mismatch while the load
// propagates.
func TestRangedEngineErrors(t *testing.T) {
	covar := func(attrs ...string) fivm.Config {
		return fivm.Config{Kind: fivm.KindCovar, Relations: openRels(), Attrs: attrs}
	}
	if _, err := fivm.Open(covar()); err == nil {
		t.Error("empty attrs accepted")
	}
	if _, err := fivm.Open(covar("Z")); err == nil {
		t.Error("unknown attr accepted")
	}
	if _, err := fivm.Open(covar("B", "B")); err == nil {
		t.Error("duplicate attr accepted")
	}

	var rr ring.RangedCovarRing
	for _, c := range []struct {
		name, want string
		snap       []byte
	}{
		{"v2 ranged", "source payload covers attribute range [1,2)",
			v2SnapshotOf(t, ring.RangedCovarCodec{Degree: 2}, rr.Lift(1)(value.Int(3)))},
		{"v2 full-degree", "not a scalar",
			v2SnapshotOf(t, fullDegreeCodec{ring.RangedCovarCodec{Degree: 2}}, rr.Lift(0)(value.Int(3)))},
		{"v3 anchor view", "anchor view of R payload covers attribute range [1,2), this engine's is [0,1)",
			snapshotOf(t, rr, ring.RangedCovarCodec{Degree: 2}, rr.Lift(1)(value.Int(3)))},
	} {
		eng := open[*fivm.CovarEngine](t, covar("B", "D"))
		if err := eng.ReadSnapshot(bytes.NewReader(c.snap)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s snapshot with a payload of the wrong range: err = %v, want %q", c.name, err, c.want)
		}
	}
	// Each stream loads into a covar engine once its payload has the
	// range the engine expects there.
	for name, snap := range map[string][]byte{
		"v2 scalar":      v2SnapshotOf(t, ring.RangedCovarCodec{Degree: 2}, rr.One()),
		"v3 anchor view": snapshotOf(t, rr, ring.RangedCovarCodec{Degree: 2}, rr.Lift(0)(value.Int(3))),
	} {
		if err := open[*fivm.CovarEngine](t, covar("B", "D")).ReadSnapshot(bytes.NewReader(snap)); err != nil {
			t.Errorf("%s snapshot: %v", name, err)
		}
	}
}

// TestCovarPartialOfAnotherDegreeIsRejected: a partial result written by
// a covar engine of one degree and merged by one of another is an error
// naming both, in either direction — never a merged model with silently
// zero statistics, nor one whose rendering fails. Today's codec tag
// carries the degree and fails at the header; a partial under the
// degree-free tag of the former rangedcovar kind (same wire format)
// reaches the payload checks: a range past the merger's degree fails
// to decode, a narrower one is not a result payload.
func TestCovarPartialOfAnotherDegreeIsRejected(t *testing.T) {
	partial := func(attrs ...string) []byte {
		eng := open[*fivm.CovarEngine](t, fivm.Config{Relations: openRels(), Attrs: attrs})
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
		{"untagged degree 2 into 3", retag(narrow, 2), []string{"B", "C", "D"}, []string{"[0,2)", "[0,3)"}},
		{"untagged degree 3 into 2", retag(wide, 3), []string{"B", "D"}, []string{"3 attributes", "degree 2"}},
	} {
		merger := open[*fivm.CovarEngine](t, fivm.Config{Relations: openRels(), Attrs: c.attrs})
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
