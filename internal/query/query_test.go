package query

import (
	"strings"
	"testing"
)

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	if err := c.AddRelation("R", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRelation("S", "A", "C", "D"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCatalogBasics(t *testing.T) {
	c := testCatalog(t)
	if err := c.AddRelation("R", "X"); err == nil {
		t.Error("duplicate relation accepted")
	}
	r, ok := c.Relation("R")
	if !ok || r.Schema.Len() != 2 {
		t.Errorf("Relation(R) = %v, %v", r, ok)
	}
	if _, ok := c.Relation("Z"); ok {
		t.Error("phantom relation")
	}
}

func TestParseSimpleCount(t *testing.T) {
	c := testCatalog(t)
	q, err := Parse(c, "SELECT SUM(1) FROM R NATURAL JOIN S")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggregates) != 1 || len(q.Relations) != 2 || len(q.GroupBy) != 0 {
		t.Fatalf("parsed %+v", q)
	}
	a := q.Aggregates[0]
	if len(a.Factors) != 1 || !a.Factors[0].IsConst || a.Factors[0].Const != 1 {
		t.Errorf("factors = %v", a.Factors)
	}
}

func TestParsePaperQuery(t *testing.T) {
	c := testCatalog(t)
	q, err := Parse(c, "SELECT SUM(gB(B) * gC(C) * gD(D)) FROM R NATURAL JOIN S")
	if err != nil {
		t.Fatal(err)
	}
	fs := q.Aggregates[0].Factors
	if len(fs) != 3 {
		t.Fatalf("factors = %v", fs)
	}
	if fs[0].Func != "gB" || fs[0].Attr != "B" {
		t.Errorf("factor 0 = %v", fs[0])
	}
	if fs[2].Attr != "D" {
		t.Errorf("factor 2 = %v", fs[2])
	}
}

func TestParseGroupByAndAlias(t *testing.T) {
	c := testCatalog(t)
	q, err := Parse(c, "SELECT A, SUM(B) AS S1 FROM R GROUP BY A")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "A" {
		t.Errorf("GroupBy = %v", q.GroupBy)
	}
	if q.Aggregates[0].Alias != "S1" {
		t.Errorf("Alias = %q", q.Aggregates[0].Alias)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	c := testCatalog(t)
	if _, err := Parse(c, "select sum(1) from R natural join S group by A"); err != nil {
		t.Errorf("lower-case keywords rejected: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	c := testCatalog(t)
	cases := []struct {
		src  string
		want string
	}{
		{"SUM(1) FROM R", "expected SELECT"},
		{"SELECT SUM(1)", "expected FROM"},
		{"SELECT SUM(1) FROM Unknown", "unknown relation"},
		{"SELECT SUM(1 FROM R", "expected ')'"},
		{"SELECT B FROM R", "must appear in GROUP BY"},
		{"SELECT SUM(Z) FROM R", "not in any joined relation"},
		{"SELECT SUM(1) FROM R GROUP BY Z", "not in any joined relation"},
		{"SELECT SUM(1) FROM R extra", "trailing input"},
		{"SELECT SUM(g(B) *) FROM R", "expected factor"},
		{"SELECT SUM(g(B B)) FROM R", "expected ')'"},
		{"SELECT SUM(1) FROM R NATURAL R", "expected JOIN"},
		{"SELECT , FROM R", "expected select item"},
	}
	for _, tc := range cases {
		_, err := Parse(c, tc.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", tc.src, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error = %v, want contains %q", tc.src, err, tc.want)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lexAll("SELECT ~"); err == nil {
		t.Error("unexpected character accepted")
	}
	if _, err := lexAll("'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
}

func TestLexerStringsAndNumbers(t *testing.T) {
	toks, err := lexAll("'hi' 3.5 -2 x1")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokString || toks[0].text != "hi" {
		t.Errorf("string token = %+v", toks[0])
	}
	if toks[1].kind != tokNumber || toks[1].text != "3.5" {
		t.Errorf("number token = %+v", toks[1])
	}
	if toks[2].kind != tokNumber || toks[2].text != "-2" {
		t.Errorf("negative number = %+v", toks[2])
	}
	if toks[3].kind != tokIdent || toks[3].text != "x1" {
		t.Errorf("ident = %+v", toks[3])
	}
}

func TestQueryString(t *testing.T) {
	c := testCatalog(t)
	q := mustParse(t, c, "SELECT A, SUM(gB(B) * gC(C)) FROM R NATURAL JOIN S GROUP BY A")
	s := q.String()
	for _, frag := range []string{"SELECT A", "SUM(gB(B) * gC(C))", "R NATURAL JOIN S", "GROUP BY A"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	// Round-trip: the rendered text must parse back to the same shape.
	q2, err := Parse(c, s)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if q2.String() != s {
		t.Errorf("round-trip drifted: %q vs %q", q2.String(), s)
	}
}

func TestQueryVars(t *testing.T) {
	c := testCatalog(t)
	q := mustParse(t, c, "SELECT SUM(1) FROM R NATURAL JOIN S")
	rels := q.VORels()
	if len(rels) != 2 || rels[0].Name != "R" {
		t.Errorf("VORels = %v", rels)
	}
}

func TestFactorString(t *testing.T) {
	cases := []struct {
		f    Factor
		want string
	}{
		{Factor{IsConst: true, Const: 1}, "1"},
		{Factor{IsConst: true, Const: 2.5}, "2.5"},
		{Factor{Attr: "B"}, "B"},
		{Factor{Func: "sq", Attr: "B"}, "sq(B)"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestValidateSchemaDrift(t *testing.T) {
	c := testCatalog(t)
	q := mustParse(t, c, "SELECT SUM(1) FROM R")
	// Simulate catalog drift after parsing.
	c2 := NewCatalog()
	if err := c2.AddRelation("R", "A"); err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(c2); err == nil {
		t.Error("drifted schema accepted")
	}
	empty := &Query{}
	if err := empty.Validate(c); err == nil {
		t.Error("relation-less query accepted")
	}
}

func mustParse(t *testing.T, c *Catalog, src string) *Query {
	t.Helper()
	q, err := Parse(c, src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
