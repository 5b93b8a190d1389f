package query

import (
	"fmt"
	"strings"

	"repro/internal/value"
	"repro/internal/vo"
)

// Relation describes one catalog relation.
type Relation struct {
	Name   string
	Schema value.Schema
}

// Catalog maps relation names to schemas. Attribute names are global (natural-join semantics): the same name in two
// relations is one variable.
type Catalog struct {
	rels map[string]Relation
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{rels: map[string]Relation{}}
}

// AddRelation registers a relation.
func (c *Catalog) AddRelation(name string, attrs ...string) error {
	if _, dup := c.rels[name]; dup {
		return fmt.Errorf("query: relation %s already in catalog", name)
	}
	c.rels[name] = Relation{Name: name, Schema: value.NewSchema(attrs...)}
	return nil
}

// Relation looks up a relation by name.
func (c *Catalog) Relation(name string) (Relation, bool) {
	r, ok := c.rels[name]
	return r, ok
}

// Factor is one multiplicand inside SUM(...): either a numeric constant,
// a bare attribute (implicit identity function), or a named function
// applied to an attribute.
type Factor struct {
	// Const holds the literal for constant factors; meaningful only when
	// IsConst is true.
	Const   float64
	IsConst bool
	// Func is the applied function name ("" for a bare attribute).
	Func string
	// Attr is the attribute the factor ranges over ("" for constants).
	Attr string
}

// String renders the factor in SQL-ish syntax.
func (f Factor) String() string {
	switch {
	case f.IsConst:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", f.Const), "0"), ".")
	case f.Func != "":
		return f.Func + "(" + f.Attr + ")"
	default:
		return f.Attr
	}
}

// Aggregate is one SUM(...) select item: the product of its factors.
type Aggregate struct {
	Factors []Factor
	// Alias is the optional AS name.
	Alias string
}

// String renders the aggregate, e.g. "SUM(gB(B) * gC(C))".
func (a Aggregate) String() string {
	parts := make([]string, len(a.Factors))
	for i, f := range a.Factors {
		parts[i] = f.String()
	}
	s := "SUM(" + strings.Join(parts, " * ") + ")"
	if a.Alias != "" {
		s += " AS " + a.Alias
	}
	return s
}

// Query is a parsed and validated F-IVM query: SUM aggregates over the
// natural join of the listed relations, optionally grouped.
type Query struct {
	Aggregates []Aggregate
	Relations  []Relation
	GroupBy    []string
}

// VORels converts the query's relations to the vo package's input form.
func (q *Query) VORels() []vo.Rel {
	out := make([]vo.Rel, len(q.Relations))
	for i, r := range q.Relations {
		out[i] = vo.Rel{Name: r.Name, Schema: r.Schema}
	}
	return out
}

// String renders the query back to SQL-ish text.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	items := make([]string, 0, len(q.Aggregates)+len(q.GroupBy))
	for _, g := range q.GroupBy {
		items = append(items, g)
	}
	for _, a := range q.Aggregates {
		items = append(items, a.String())
	}
	b.WriteString(strings.Join(items, ", "))
	b.WriteString(" FROM ")
	names := make([]string, len(q.Relations))
	for i, r := range q.Relations {
		names[i] = r.Name
	}
	b.WriteString(strings.Join(names, " NATURAL JOIN "))
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(q.GroupBy, ", "))
	}
	return b.String()
}

// Validate checks the query against the catalog: relations exist,
// aggregate attributes exist in some relation, group-by attributes
// exist, and plain select attributes are grouped.
func (q *Query) Validate(c *Catalog) error {
	if len(q.Relations) == 0 {
		return fmt.Errorf("query: no relations")
	}
	attrs := value.NewSchema()
	for _, r := range q.Relations {
		cr, ok := c.Relation(r.Name)
		if !ok {
			return fmt.Errorf("query: unknown relation %s", r.Name)
		}
		if !cr.Schema.Equal(r.Schema) {
			return fmt.Errorf("query: relation %s schema drifted from catalog", r.Name)
		}
		attrs = attrs.Union(r.Schema)
	}
	for _, a := range q.Aggregates {
		for _, f := range a.Factors {
			if f.Attr != "" && !attrs.Has(f.Attr) {
				return fmt.Errorf("query: aggregate attribute %s not in any joined relation", f.Attr)
			}
		}
	}
	for _, g := range q.GroupBy {
		if !attrs.Has(g) {
			return fmt.Errorf("query: group-by attribute %s not in any joined relation", g)
		}
	}
	return nil
}
