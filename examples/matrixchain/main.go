// Command matrixchain demonstrates the paper's observation that the
// same view tree maintains matrix chain multiplication when the ring is
// swapped: matrices become relations over their index pairs with entries
// as float-ring payloads, the chain product A·B·C becomes the query
//
//	SELECT I, L, SUM(1)
//	FROM MA NATURAL JOIN MB NATURAL JOIN MC GROUP BY I, L
//
// (with entries living in payloads rather than columns — the SUM(1)
// lift contributes nothing; InitWeighted supplies the entries), and
// updating a single matrix entry incrementally maintains the product.
//
// The whole workload runs through the unified fivm API: Open compiles
// the query into a float-ring engine, and the generic core's
// InitWeighted/ApplyBuilt lifecycle does the rest: a weighted
// *relation.Map is itself a Delta.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/fivm"
	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
)

// dims of the chain A(4×3) · B(3×5) · C(5×2).
const (
	dimI = 4
	dimJ = 3
	dimK = 5
	dimL = 2
)

func main() {
	rng := rand.New(rand.NewSource(42))
	f := ring.Floats{}

	// Matrices as weighted relations: keys are index pairs, payloads are
	// entries.
	a := randomMatrix(rng, "I", "J", dimI, dimJ)
	b := randomMatrix(rng, "J", "K", dimJ, dimK)
	c := randomMatrix(rng, "K", "L", dimK, dimL)

	// KindFloat forces the float ring (SUM(1) alone would infer a count
	// engine over Z — entries are floats).
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
	fe := eng.(*fivm.FloatEngine)
	if err := fe.InitWeighted(map[string]*relation.Map[float64]{
		"MA": a, "MB": b, "MC": c,
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("A·B·C via the view tree (entries as ring payloads):")
	printProduct(fe)

	// Verify against direct evaluation.
	direct := chainProduct(a, b, c)
	fmt.Printf("matches direct evaluation: %v\n\n", productsEqual(fe, direct))

	// Incremental entry update: ΔA[0,0] = +1 means the delta payload is
	// +1 at key (0,0); the product updates without recomputation.
	fmt.Println("applying ΔA[0,0] += 1 incrementally:")
	delta := relation.New[float64](value.NewSchema("I", "J"))
	delta.Set(value.T(0, 0), 1)
	if err := fe.ApplyBuilt("MA", delta); err != nil {
		log.Fatal(err)
	}
	a.Merge(f, value.T(0, 0), 1)
	direct = chainProduct(a, b, c)
	printProduct(fe)
	fmt.Printf("matches direct re-evaluation: %v\n", productsEqual(fe, direct))
}

func randomMatrix(rng *rand.Rand, rowAttr, colAttr string, rows, cols int) *relation.Map[float64] {
	m := relation.New[float64](value.NewSchema(rowAttr, colAttr))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(value.T(i, j), float64(rng.Intn(9)+1))
		}
	}
	return m
}

// chainProduct multiplies the three matrices directly.
func chainProduct(a, b, c *relation.Map[float64]) [][]float64 {
	ab := make([][]float64, dimI)
	for i := range ab {
		ab[i] = make([]float64, dimK)
		for k := 0; k < dimK; k++ {
			for j := 0; j < dimJ; j++ {
				av, _ := a.Get(value.T(i, j))
				bv, _ := b.Get(value.T(j, k))
				ab[i][k] += av * bv
			}
		}
	}
	out := make([][]float64, dimI)
	for i := range out {
		out[i] = make([]float64, dimL)
		for l := 0; l < dimL; l++ {
			for k := 0; k < dimK; k++ {
				cv, _ := c.Get(value.T(k, l))
				out[i][l] += ab[i][k] * cv
			}
		}
	}
	return out
}

func printProduct(fe *fivm.FloatEngine) {
	for i := 0; i < dimI; i++ {
		fmt.Print("  [")
		for l := 0; l < dimL; l++ {
			fmt.Printf(" %8.0f", fe.Result().GetOr(value.T(i, l), 0))
		}
		fmt.Println(" ]")
	}
}

func productsEqual(fe *fivm.FloatEngine, want [][]float64) bool {
	for i := range want {
		for l := range want[i] {
			if fe.Result().GetOr(value.T(i, l), 0) != want[i][l] {
				return false
			}
		}
	}
	return true
}
