package value

import (
	"fmt"
	"strings"
)

// Schema is an ordered list of attribute names. Attribute order is
// significant: it fixes the positional layout of companion tuples.
// Schemas are treated as immutable after construction.
type Schema struct {
	attrs []string
	pos   map[string]int
}

// NewSchema builds a schema from attribute names. It panics on duplicate
// names, which always indicate a programming error at this layer.
func NewSchema(attrs ...string) Schema {
	pos := make(map[string]int, len(attrs))
	cp := make([]string, len(attrs))
	copy(cp, attrs)
	for i, a := range cp {
		if _, dup := pos[a]; dup {
			panic(fmt.Sprintf("value: duplicate attribute %q in schema", a))
		}
		pos[a] = i
	}
	return Schema{attrs: cp, pos: pos}
}

// Len returns the number of attributes.
func (s Schema) Len() int { return len(s.attrs) }

// Attrs returns the attribute names in order. Callers must not mutate
// the returned slice.
func (s Schema) Attrs() []string { return s.attrs }

// Attr returns the i-th attribute name.
func (s Schema) Attr(i int) string { return s.attrs[i] }

// Index returns the position of attribute a, or -1 if absent.
func (s Schema) Index(a string) int {
	if i, ok := s.pos[a]; ok {
		return i
	}
	return -1
}

// Has reports whether attribute a is in the schema.
func (s Schema) Has(a string) bool { _, ok := s.pos[a]; return ok }

// Equal reports whether two schemas list the same attributes in the
// same order.
func (s Schema) Equal(o Schema) bool {
	if len(s.attrs) != len(o.attrs) {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}

// Intersect returns the attributes of s that also appear in o, in s's
// order.
func (s Schema) Intersect(o Schema) Schema {
	var out []string
	for _, a := range s.attrs {
		if o.Has(a) {
			out = append(out, a)
		}
	}
	return NewSchema(out...)
}

// Union returns s followed by the attributes of o not already in s.
func (s Schema) Union(o Schema) Schema {
	out := make([]string, len(s.attrs), len(s.attrs)+o.Len())
	copy(out, s.attrs)
	for _, a := range o.attrs {
		if !s.Has(a) {
			out = append(out, a)
		}
	}
	return NewSchema(out...)
}

// Minus returns the attributes of s not present in o, in s's order.
func (s Schema) Minus(o Schema) Schema {
	var out []string
	for _, a := range s.attrs {
		if !o.Has(a) {
			out = append(out, a)
		}
	}
	return NewSchema(out...)
}

// Project returns the positions in s of the attrs of target, so that
// tuple.Project(positions) restricts a tuple of s to target. It returns
// an error if target mentions an attribute absent from s.
func (s Schema) Project(target Schema) ([]int, error) {
	idx := make([]int, target.Len())
	for i, a := range target.attrs {
		j := s.Index(a)
		if j < 0 {
			return nil, fmt.Errorf("value: attribute %q not in schema %v", a, s.attrs)
		}
		idx[i] = j
	}
	return idx, nil
}

// MustProject is Project that panics on error, for statically known
// subset relationships.
func (s Schema) MustProject(target Schema) []int {
	idx, err := s.Project(target)
	if err != nil {
		panic(err)
	}
	return idx
}

// IsSubsetOf reports whether every attribute of s appears in o.
func (s Schema) IsSubsetOf(o Schema) bool {
	for _, a := range s.attrs {
		if !o.Has(a) {
			return false
		}
	}
	return true
}

// String renders the schema as "[a, b, c]".
func (s Schema) String() string {
	return "[" + strings.Join(s.attrs, ", ") + "]"
}
