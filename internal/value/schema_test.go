package value

import "testing"

func TestSchemaBasics(t *testing.T) {
	s := NewSchema("A", "B", "C")
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Attr(1) != "B" {
		t.Errorf("Attr(1) = %s", s.Attr(1))
	}
	if s.Index("C") != 2 || s.Index("Z") != -1 {
		t.Error("Index misbehaves")
	}
	if !s.Has("A") || s.Has("Z") {
		t.Error("Has misbehaves")
	}
	if s.String() != "[A, B, C]" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate attribute")
		}
	}()
	NewSchema("A", "A")
}

func TestSchemaSetOps(t *testing.T) {
	s := NewSchema("A", "B", "C")
	o := NewSchema("B", "D")
	if got := s.Intersect(o); !got.Equal(NewSchema("B")) {
		t.Errorf("Intersect = %v", got)
	}
	if got := s.Union(o); !got.Equal(NewSchema("A", "B", "C", "D")) {
		t.Errorf("Union = %v", got)
	}
	if got := s.Minus(o); !got.Equal(NewSchema("A", "C")) {
		t.Errorf("Minus = %v", got)
	}
	if got := o.Minus(s); !got.Equal(NewSchema("D")) {
		t.Errorf("Minus reversed = %v", got)
	}
	empty := NewSchema()
	if !empty.Intersect(s).Equal(empty) || !s.Union(empty).Equal(s) {
		t.Error("empty-schema ops misbehave")
	}
}

func TestSchemaEqualOrderSensitive(t *testing.T) {
	if NewSchema("A", "B").Equal(NewSchema("B", "A")) {
		t.Error("Equal ignores order")
	}
	if !NewSchema("A", "B").Equal(NewSchema("A", "B")) {
		t.Error("identical schemas unequal")
	}
	if NewSchema("A").Equal(NewSchema("A", "B")) {
		t.Error("prefix schemas equal")
	}
}

func TestSchemaProject(t *testing.T) {
	s := NewSchema("A", "B", "C", "D")
	idx, err := s.Project(NewSchema("C", "A"))
	if err != nil {
		t.Fatal(err)
	}
	tp := T(1, 2, 3, 4).Project(idx)
	if !tp.Equal(T(3, 1)) {
		t.Errorf("projected tuple = %v", tp)
	}
	if _, err := s.Project(NewSchema("Z")); err == nil {
		t.Error("Project of missing attribute succeeded")
	}
}

func TestSchemaMustProjectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewSchema("A").MustProject(NewSchema("B"))
}

func TestSchemaIsSubsetOf(t *testing.T) {
	s := NewSchema("A", "B")
	if !s.IsSubsetOf(NewSchema("B", "C", "A")) {
		t.Error("subset not detected")
	}
	if s.IsSubsetOf(NewSchema("A")) {
		t.Error("superset claimed subset")
	}
	if !NewSchema().IsSubsetOf(s) {
		t.Error("empty schema must be subset of everything")
	}
}

func TestSchemaAttrsNotAliased(t *testing.T) {
	src := []string{"A", "B"}
	s := NewSchema(src...)
	src[0] = "Z"
	if s.Attr(0) != "A" {
		t.Error("schema aliases constructor slice")
	}
}
