package ml_test

import (
	"slices"
	"testing"

	"repro/fivm"
	"repro/internal/daemon"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/ml"
	"repro/internal/ring"
)

// openPresetMI opens the named preset's MI engine (its MIFeatures, every
// continuous attribute binned) over db and evaluates it.
func openPresetMI(tb testing.TB, p daemon.Preset, db *dataset.Database) *fivm.Engine[*ring.RelCovar] {
	tb.Helper()
	cfg := fivm.Config{Features: p.MIFeatures}
	for _, r := range db.Relations {
		cfg.Relations = append(cfg.Relations, fivm.RelationSpec{Name: r.Name, Attrs: r.Attrs})
	}
	eng, err := fivm.Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := eng.Init(db.TupleMap()); err != nil {
		tb.Fatal(err)
	}
	return eng.(*fivm.Engine[*ring.RelCovar])
}

// TestMIMatchesReferenceOnPresets streams the demo's tab stream (a
// quarter deletes) into the Retailer and Favorita presets' MI engines in
// ten bulks and, after the evaluation and after each bulk, publishes a
// model and holds the MI matrix read off its Σ — built on the previous
// version's, as the tabs read it — to the relational-ring reference
// within 1e-12 relative, and the feature ranking, the selection and the
// Chow-Liu tree derived from it to the reference's exactly.
func TestMIMatchesReferenceOnPresets(t *testing.T) {
	sc := experiments.SmallScale()
	for _, name := range []string{"retailer", "favorita"} {
		t.Run(name, func(t *testing.T) {
			p := daemon.Presets[name]
			db := p.Generate(sc.InventoryRows)
			eng := openPresetMI(t, p, db)
			st, err := dataset.NewStream(db, dataset.StreamConfig{Relation: p.Fact, Total: sc.StreamLen, DeleteRatio: 0.25, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			check := func(bulk int) {
				m := eng.PublishModel(nil).(*fivm.AnalysisModel)
				sigma, err := m.Covar()
				if err != nil {
					t.Fatal(err)
				}
				got, ref := ml.CheckMI(t, sigma, m.Payload, m.Features, 0)
				gotRank, gotSel, err := ml.SelectFeatures(got, p.Label, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				refRank, refSel, err := ml.SelectFeatures(ref, p.Label, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(gotSel, refSel) {
					t.Fatalf("bulk %d: selected %v, reference %v", bulk, gotSel, refSel)
				}
				attrs := func(rank []ml.RankedAttr) (out []string) {
					for _, r := range rank {
						out = append(out, r.Attr)
					}
					return out
				}
				if !slices.Equal(attrs(gotRank), attrs(refRank)) {
					t.Fatalf("bulk %d: ranking %v, reference %v", bulk, gotRank, refRank)
				}
				gotTree, err := ml.ChowLiu(got, p.Root)
				if err != nil {
					t.Fatal(err)
				}
				refTree, err := ml.ChowLiu(ref, p.Root)
				if err != nil {
					t.Fatal(err)
				}
				edges := func(tree *ml.ChowLiuTree) (out [][2]string) {
					for _, e := range tree.Edges {
						out = append(out, [2]string{e.Parent, e.Child})
					}
					return out
				}
				if !slices.Equal(edges(gotTree), edges(refTree)) {
					t.Fatalf("bulk %d: tree edges %v, reference %v", bulk, edges(gotTree), edges(refTree))
				}
			}
			check(0)
			bulks := st.Bulks(sc.StreamLen / 10)
			if len(bulks) != 10 {
				t.Fatalf("%d bulks, want 10", len(bulks))
			}
			for i, bulk := range bulks {
				if err := eng.Apply(bulk); err != nil {
					t.Fatal(err)
				}
				check(i + 1)
			}
		})
	}
}

// retailerMIModel is a model of the Retailer preset's MI engine
// evaluated over 20 000 fact rows: the payload BenchmarkMI and
// BenchmarkSigma read.
func retailerMIModel(b *testing.B) *fivm.AnalysisModel {
	p := daemon.Presets["retailer"]
	return openPresetMI(b, p, p.Generate(20_000)).PublishModel(nil).(*fivm.AnalysisModel)
}

// BenchmarkMI times the MI matrix read off the Σ of the Retailer
// preset's MI payload; BenchmarkSigma times the Σ build.
func BenchmarkMI(b *testing.B) {
	m := retailerMIModel(b)
	sigma, err := m.Covar()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.MIFromSigma(sigma, m.Features); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSigma times the Σ build twice: cold, decoding and sorting
// every category into columns, and over unchanged payload keys on the
// previous Σ's columns and structure, as a published version's fit
// usually does.
func BenchmarkSigma(b *testing.B) {
	m := retailerMIModel(b)
	cold, err := ml.SigmaFromRelCovar(m.Payload, m.Features, nil)
	if err != nil {
		b.Fatal(err)
	}
	prev, err := ml.SigmaFromRelCovar(m.Payload, m.Features, cold) // records its structure
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		prev *ml.SigmaMatrix
	}{{"cold", nil}, {"reused", prev}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ml.SigmaFromRelCovar(m.Payload, m.Features, bc.prev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
