package dataset

import (
	"strings"
	"testing"

	"repro/internal/value"
)

func TestCSVRoundTrip(t *testing.T) {
	db := Retailer(RetailerConfig{Locations: 3, Dates: 4, Items: 6, InventoryRows: 40, Zips: 3, Seed: 12})
	dir := t.TempDir()
	if err := WriteCSV(db, dir); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(db.Relations))
	for i, r := range db.Relations {
		names[i] = r.Name
	}
	back, err := ReadCSV(dir, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Relations) != len(db.Relations) {
		t.Fatalf("%d relations back, want %d", len(back.Relations), len(db.Relations))
	}
	for _, orig := range db.Relations {
		got, ok := back.Relation(orig.Name)
		if !ok {
			t.Fatalf("relation %s missing after roundtrip", orig.Name)
		}
		if len(got.Tuples) != len(orig.Tuples) {
			t.Fatalf("%s: %d tuples back, want %d", orig.Name, len(got.Tuples), len(orig.Tuples))
		}
		if !got.Schema().Equal(orig.Schema()) {
			t.Fatalf("%s: schema %v back, want %v", orig.Name, got.Schema(), orig.Schema())
		}
		for i := range orig.Tuples {
			if !got.Tuples[i].Equal(orig.Tuples[i]) {
				t.Fatalf("%s row %d: %v back, want %v", orig.Name, i, got.Tuples[i], orig.Tuples[i])
			}
		}
	}
}

func TestParseCSVTypedHeader(t *testing.T) {
	src := "id:int, price:float, name:string\n1,2.5,apple\n2,0.75,pear\n"
	rel, err := ParseCSV("Fruit", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Tuples) != 2 {
		t.Fatalf("%d tuples", len(rel.Tuples))
	}
	want := value.T(1, 2.5, "apple")
	if !rel.Tuples[0].Equal(want) {
		t.Errorf("row 0 = %v, want %v", rel.Tuples[0], want)
	}
	if rel.Attrs[1] != "price" {
		t.Errorf("attrs = %v", rel.Attrs)
	}
}

func TestParseCSVDefaultsToString(t *testing.T) {
	rel, err := ParseCSV("R", strings.NewReader("a,b:int\nx,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0][0].Kind() != value.KindString {
		t.Errorf("untyped column kind = %v", rel.Tuples[0][0].Kind())
	}
}

func TestParseCSVNulls(t *testing.T) {
	rel, err := ParseCSV("R", strings.NewReader("a:int,b:float\n,\n3,4.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0][0].Kind() != value.KindNull || rel.Tuples[0][1].Kind() != value.KindNull {
		t.Errorf("empty fields = %v, want NULLs", rel.Tuples[0])
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"bad kind", "a:blob\n1\n"},
		{"empty name", ":int\n1\n"},
		{"bad int", "a:int\nxyz\n"},
		{"bad float", "a:float\nxyz\n"},
		{"ragged row", "a:int,b:int\n1\n"},
		{"empty input", ""},
	}
	for _, c := range cases {
		if _, err := ParseCSV("R", strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestReadCSVMissingFile(t *testing.T) {
	if _, err := ReadCSV(t.TempDir(), []string{"Nope"}); err == nil {
		t.Error("missing file accepted")
	}
}
