package fivm_test

import (
	"fmt"
	"log"

	"repro/fivm"
	"repro/internal/ml"
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
	an := eng.(*fivm.Analysis)
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

// ExampleAnalysis_Ridge fits a ridge regression from the maintained
// COVAR matrix: the training set is never materialized.
func ExampleAnalysis_Ridge() {
	eng, err := fivm.Open(fivm.Config{
		Relations: []fivm.RelationSpec{{Name: "T", Attrs: []string{"id", "x", "y"}}},
		Features:  []fivm.FeatureSpec{{Attr: "x"}, {Attr: "y"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	an := eng.(*fivm.Analysis)
	// y = 2x exactly.
	var rows []value.Tuple
	for i := 0; i < 10; i++ {
		rows = append(rows, value.T(i, i, 2*i))
	}
	if err := an.Init(map[string][]value.Tuple{"T": rows}); err != nil {
		log.Fatal(err)
	}
	model, sigma, err := an.Ridge("y", nil, ml.RidgeConfig{
		Lambda: 1e-9, MaxIters: 20000, Tolerance: 1e-12, Normalize: true,
	})
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
	count := eng.(*fivm.CountEngine)
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
