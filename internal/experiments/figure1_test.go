package experiments_test

import (
	"log"
	"os"

	"repro/internal/experiments"
)

// ExampleFigure1 pins every line of E1, the paper's running example:
// the view tree, Q's payload under the four rings, and δR's insert and
// delete.
func ExampleFigure1() {
	if err := experiments.Figure1(os.Stdout); err != nil {
		log.Fatal(err)
	}
	// Output:
	// View tree (variable order) for R(A,B) ⋈ S(A,C,D):
	// V@A[]
	//   V@B[A]
	//     R[...]
	//   V@C[A]
	//     V@D[A, C]
	//       S[...]
	//
	// Q = SUM(1)                      -> 3 tuples in the join
	// COVAR (cont. B,C,D)             -> count=3  s=[4 5 6]
	//                                    Q=[BB=6 BC=7 BD=8 CC=9 CD=11 DD=14]
	// COVAR (cat. C; cont. B,D)       -> s_C={(1)->1, (2)->2}  Q_BC={(1)->1, (2)->3}
	// MI (cat. B,C,D)                 -> C_B={(1)->2, (2)->1}  C_CD={(1, 1)->1, (2, 2)->1, (2, 3)->1}
	//
	// Applying δR = insert (a1, b1):
	//   count   -> 5
	//   COVAR   -> count=5 SUM(B)=6 SUM(B*D)=12
	// Deleting it again restores the initial state:
	//   COVAR   -> count=3 SUM(B)=4 (matches the bulk-loaded state: true)
}
