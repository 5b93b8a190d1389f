package fivm_test

import (
	"fmt"
	"log"
	"math/rand"

	"repro/fivm"
	"repro/internal/ml"
	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
)

// Example reproduces the paper's running query — SUM(gB(B)*gC(C)*gD(D))
// over R(A,B) ⋈ S(A,C,D) — with categorical C, showing bulk load,
// payload inspection, and incremental maintenance under a delete.
func Example() {
	eng, err := fivm.Open(fivm.Config{
		Relations: []fivm.RelationSpec{
			{Name: "R", Attrs: []string{"A", "B"}},
			{Name: "S", Attrs: []string{"A", "C", "D"}},
		},
		Features: []fivm.FeatureSpec{
			{Attr: "B"},
			{Attr: "C", Categorical: true},
			{Attr: "D"},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	an := eng.(*fivm.Engine[*ring.RelCovar])
	err = an.Init(map[string][]value.Tuple{
		"R": {value.T("a1", 1), value.T("a2", 2)},
		"S": {value.T("a1", 1, 1), value.T("a1", 2, 3), value.T("a2", 2, 2)},
	})
	if err != nil {
		log.Fatal(err)
	}
	p := an.Payload()
	fmt.Println("count:", p.Count())
	fmt.Println("s_C:  ", p.Sum(1))
	fmt.Println("Q_BC: ", p.Prod(0, 1))

	// A delete is an update with negative multiplicity.
	err = an.Apply([]view.Update{{Rel: "S", Tuple: value.T("a1", 2, 3), Mult: -1}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after delete:", an.Payload().Count())
	// Output:
	// count: {()->3}
	// s_C:   {(1)->1, (2)->2}
	// Q_BC:  {(1)->1, (2)->3}
	// after delete: {()->2}
}

// ExampleAnalysisModel_Fit fits a ridge regression from the maintained
// COVAR matrix of a published model: the training set is never
// materialized.
func ExampleAnalysisModel_Fit() {
	eng, err := fivm.Open(fivm.Config{
		Relations: []fivm.RelationSpec{{Name: "T", Attrs: []string{"id", "x", "y"}}},
		Features:  []fivm.FeatureSpec{{Attr: "x"}, {Attr: "y"}},
		Label:     "y",
		Ridge:     ml.RidgeConfig{Lambda: 1e-9, MaxIters: 20000, Tolerance: 1e-12, Normalize: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	// y = 2x exactly.
	var rows []value.Tuple
	for i := 0; i < 10; i++ {
		rows = append(rows, value.T(i, i, 2*i))
	}
	if err := eng.Init(map[string][]value.Tuple{"T": rows}); err != nil {
		log.Fatal(err)
	}
	model, sigma, err := eng.PublishModel(nil).(*fivm.AnalysisModel).Fit()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("θ_x ≈ %.3f, RMSE ≈ %.3f\n", model.Weights[sigma.ColumnsOf("x")[0]], model.TrainRMSE(sigma))
	// Output:
	// θ_x ≈ 2.000, RMSE ≈ 0.000
}

// ExampleOpen compiles a SQL-subset query into a Z-ring view tree that
// maintains a grouped count; the kind is inferred from SUM(1).
func ExampleOpen() {
	eng, err := fivm.Open(fivm.Config{
		Relations: []fivm.RelationSpec{{Name: "R", Attrs: []string{"A", "B"}}},
		Query:     "SELECT A, SUM(1) FROM R GROUP BY A",
	})
	if err != nil {
		log.Fatal(err)
	}
	count := eng.(*fivm.Engine[int64])
	err = count.Init(map[string][]value.Tuple{
		"R": {value.T("a1", 1), value.T("a1", 2), value.T("a2", 3)},
	})
	if err != nil {
		log.Fatal(err)
	}
	count.Result().EachSorted(func(t value.Tuple, c int64) {
		fmt.Printf("%v -> %d\n", t, c)
	})
	// Output:
	// (a1) -> 2
	// (a2) -> 1
}

// ExampleEngine_InitWeighted maintains the matrix chain product
// A(4×3)·B(3×5)·C(5×2), the paper's observation that the same view tree
// maintains matrix chain multiplication once the ring is swapped. Each
// matrix is a relation over its index pair whose entries are float-ring
// payloads, so the chain product is the query
//
//	SELECT I, L, SUM(1) FROM MA NATURAL JOIN MB NATURAL JOIN MC GROUP BY I, L
//
// where the SUM(1) lift contributes nothing: InitWeighted supplies the
// entries, and a weighted *relation.Map is itself a Delta, so updating
// one entry is one ApplyBuilt that maintains the product incrementally.
func ExampleEngine_InitWeighted() {
	const dimI, dimJ, dimK, dimL = 4, 3, 5, 2
	rng := rand.New(rand.NewSource(42))
	matrix := func(rowAttr, colAttr string, rows, cols int) *relation.Map[float64] {
		m := relation.New[float64](value.NewSchema(rowAttr, colAttr))
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(value.T(i, j), float64(rng.Intn(9)+1))
			}
		}
		return m
	}
	a, b, c := matrix("I", "J", dimI, dimJ), matrix("J", "K", dimJ, dimK), matrix("K", "L", dimK, dimL)

	// KindFloat forces the float ring: SUM(1) alone would infer a count
	// engine over Z, and the entries are floats.
	eng, err := fivm.Open(fivm.Config{
		Kind: fivm.KindFloat,
		Relations: []fivm.RelationSpec{
			{Name: "MA", Attrs: []string{"I", "J"}},
			{Name: "MB", Attrs: []string{"J", "K"}},
			{Name: "MC", Attrs: []string{"K", "L"}},
		},
		Query: "SELECT I, L, SUM(1) FROM MA NATURAL JOIN MB NATURAL JOIN MC GROUP BY I, L",
	})
	if err != nil {
		log.Fatal(err)
	}
	fe := eng.(*fivm.Engine[float64])
	if err := fe.InitWeighted(map[string]*relation.Map[float64]{"MA": a, "MB": b, "MC": c}); err != nil {
		log.Fatal(err)
	}

	// printProduct prints the maintained product and whether it equals
	// the direct evaluation of A·B·C.
	printProduct := func() {
		same := true
		for i := 0; i < dimI; i++ {
			fmt.Print("  [")
			for l := 0; l < dimL; l++ {
				var direct float64
				for j := 0; j < dimJ; j++ {
					for k := 0; k < dimK; k++ {
						direct += a.GetOr(value.T(i, j), 0) * b.GetOr(value.T(j, k), 0) * c.GetOr(value.T(k, l), 0)
					}
				}
				got := fe.Result().GetOr(value.T(i, l), 0)
				same = same && got == direct
				fmt.Printf(" %8.0f", got)
			}
			fmt.Println(" ]")
		}
		fmt.Println("matches direct evaluation:", same)
	}
	fmt.Println("A·B·C via the view tree (entries as ring payloads):")
	printProduct()

	// ΔA[0,0] = +1 is a delta whose payload is +1 at key (0,0).
	fmt.Println("applying ΔA[0,0] += 1 incrementally:")
	delta := relation.New[float64](value.NewSchema("I", "J"))
	delta.Set(value.T(0, 0), 1)
	if err := fe.ApplyBuilt("MA", delta); err != nil {
		log.Fatal(err)
	}
	a.Merge(ring.Floats{}, value.T(0, 0), 1)
	printProduct()
	// Output:
	// A·B·C via the view tree (entries as ring payloads):
	//   [     2409     2682 ]
	//   [     1672     2061 ]
	//   [     1917     2122 ]
	//   [     1322     1264 ]
	// matches direct evaluation: true
	// applying ΔA[0,0] += 1 incrementally:
	//   [     2514     2755 ]
	//   [     1672     2061 ]
	//   [     1917     2122 ]
	//   [     1322     1264 ]
	// matches direct evaluation: true
}
