package relation

import (
	"testing"

	"repro/internal/ring"
	"repro/internal/value"
)

func s(attrs ...string) value.Schema { return value.NewSchema(attrs...) }

func TestMapBasics(t *testing.T) {
	m := New[int64](s("A", "B"))
	if m.Len() != 0 {
		t.Error("new map not empty")
	}
	m.Set(value.T(1, "x"), 5)
	if m.Len() != 1 {
		t.Error("Len after Set")
	}
	if got, ok := m.Get(value.T(1, "x")); !ok || got != 5 {
		t.Errorf("Get = %v, %v", got, ok)
	}
	if _, ok := m.Get(value.T(2, "x")); ok {
		t.Error("Get of absent tuple succeeded")
	}
	if got := m.GetOr(value.T(9, "z"), -1); got != -1 {
		t.Errorf("GetOr default = %v", got)
	}
	m.Set(value.T(1, "x"), 7)
	if got, _ := m.Get(value.T(1, "x")); got != 7 {
		t.Error("Set did not replace")
	}
}

func TestMapArityPanics(t *testing.T) {
	m := New[int64](s("A", "B"))
	for _, fn := range []func(){
		func() { m.Set(value.T(1), 1) },
		func() { m.Merge(ring.Ints{}, value.T(1, 2, 3), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic on arity mismatch")
				}
			}()
			fn()
		}()
	}
}

func TestMergeCancellation(t *testing.T) {
	z := ring.Ints{}
	m := New[int64](s("A"))
	m.Merge(z, value.T(1), 2)
	m.Merge(z, value.T(1), 3)
	if got, _ := m.Get(value.T(1)); got != 5 {
		t.Errorf("merged payload = %d", got)
	}
	m.Merge(z, value.T(1), -5)
	if m.Len() != 0 {
		t.Error("cancelled tuple not removed")
	}
	// Merging an explicit zero must not create an entry.
	m.Merge(z, value.T(2), 0)
	if m.Len() != 0 {
		t.Error("zero payload created an entry")
	}
}

func TestMergeAll(t *testing.T) {
	z := ring.Ints{}
	a := New[int64](s("A"))
	a.Merge(z, value.T(1), 1)
	a.Merge(z, value.T(2), 2)
	b := New[int64](s("A"))
	b.Merge(z, value.T(2), -2)
	b.Merge(z, value.T(3), 3)
	a.MergeAll(z, b)
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2: %v", a.Len(), a)
	}
	if got, _ := a.Get(value.T(1)); got != 1 {
		t.Error("tuple 1 perturbed")
	}
	if _, ok := a.Get(value.T(2)); ok {
		t.Error("cancelled tuple 2 still present")
	}
	if got, _ := a.Get(value.T(3)); got != 3 {
		t.Error("tuple 3 missing")
	}
}

func TestMergeAllSchemaMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New[int64](s("A")).MergeAll(ring.Ints{}, New[int64](s("B")))
}

func TestEachSortedDeterminism(t *testing.T) {
	z := ring.Ints{}
	m := New[int64](s("A"))
	for _, v := range []int{5, 3, 9, 1} {
		m.Merge(z, value.T(v), int64(v))
	}
	var order []int64
	m.EachSorted(func(tp value.Tuple, p int64) { order = append(order, tp[0].Int()) })
	want := []int64{1, 3, 5, 9}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("sorted order = %v", order)
		}
	}
}

func TestCloneAndNegate(t *testing.T) {
	z := ring.Ints{}
	m := New[int64](s("A"))
	m.Merge(z, value.T(1), 4)
	cl := m.Clone()
	cl.Merge(z, value.T(1), 1)
	if got, _ := m.Get(value.T(1)); got != 4 {
		t.Error("Clone aliases storage")
	}
	n := m.Negate(z)
	if got, _ := n.Get(value.T(1)); got != -4 {
		t.Errorf("Negate = %d", got)
	}
	// Original untouched.
	if got, _ := m.Get(value.T(1)); got != 4 {
		t.Error("Negate mutated source")
	}
}

func TestEqual(t *testing.T) {
	z := ring.Ints{}
	eq := func(a, b int64) bool { return a == b }
	a := New[int64](s("A"))
	b := New[int64](s("A"))
	a.Merge(z, value.T(1), 1)
	b.Merge(z, value.T(1), 1)
	if !a.Equal(b, eq) {
		t.Error("equal relations unequal")
	}
	b.Merge(z, value.T(2), 2)
	if a.Equal(b, eq) {
		t.Error("different sizes equal")
	}
	c := New[int64](s("B"))
	c.Merge(z, value.T(1), 1)
	if a.Equal(c, eq) {
		t.Error("different schemas equal")
	}
}

func TestStringRendering(t *testing.T) {
	z := ring.Ints{}
	m := New[int64](s("A"))
	m.Merge(z, value.T(2), 1)
	m.Merge(z, value.T(1), 3)
	want := "[A] {\n  (1) -> 3\n  (2) -> 1\n}"
	if got := m.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestFromTuplesBagSemantics(t *testing.T) {
	z := ring.Ints{}
	m := FromTuples[int64](z, s("A"), []value.Tuple{value.T(1), value.T(1), value.T(2)})
	if got, _ := m.Get(value.T(1)); got != 2 {
		t.Errorf("duplicate multiplicity = %d, want 2", got)
	}
	if got, _ := m.Get(value.T(2)); got != 1 {
		t.Errorf("single multiplicity = %d", got)
	}
}

// TestPartitionKeyIgnoresForeignAttrs: PartitionKey drops key attributes
// absent from the schema instead of failing, and a key the schema does
// not meet at all projects onto nothing (a shard map then hashes the
// full tuple).
func TestPartitionKeyIgnoresForeignAttrs(t *testing.T) {
	m := New[int64](s("A", "B"))
	if idx := m.PartitionKey(s("B", "Z")); len(idx) != 1 || idx[0] != 1 {
		t.Fatalf("PartitionKey([B, Z]) = %v, want [1]", idx)
	}
	if idx := m.PartitionKey(s("Z")); len(idx) != 0 {
		t.Fatalf("PartitionKey([Z]) = %v, want []", idx)
	}
}
