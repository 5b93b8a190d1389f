package query

import (
	"fmt"
	"strconv"
)

// Parse parses a query string against the catalog and validates it.
//
// Grammar (case-insensitive keywords):
//
//	query    := SELECT items FROM joins [GROUP BY attrs]
//	items    := item {',' item}
//	item     := attr | SUM '(' product ')' [AS ident]
//	product  := factor {'*' factor}
//	factor   := number | attr | ident '(' attr ')'
//	joins    := ident {NATURAL JOIN ident}
//	attrs    := ident {',' ident}
func Parse(c *Catalog, src string) (*Query, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, cat: c}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if err := q.Validate(c); err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
	cat  *Catalog
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expectKeyword(kw string) error {
	t := p.advance()
	if t.kind != tokKeyword || t.text != kw {
		return fmt.Errorf("query: expected %s at offset %d, got %q", kw, t.pos, t.text)
	}
	return nil
}

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.advance()
	if t.kind != k {
		return t, fmt.Errorf("query: expected %v at offset %d, got %q", k, t.pos, t.text)
	}
	return t, nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}
	var plain []string
	for {
		t := p.peek()
		switch {
		case t.kind == tokKeyword && t.text == "SUM":
			agg, err := p.parseAggregate()
			if err != nil {
				return nil, err
			}
			q.Aggregates = append(q.Aggregates, agg)
		case t.kind == tokIdent:
			p.advance()
			plain = append(plain, t.text)
		default:
			return nil, fmt.Errorf("query: expected select item at offset %d, got %q", t.pos, t.text)
		}
		if p.peek().kind != tokComma {
			break
		}
		p.advance()
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		t, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		rel, ok := p.cat.Relation(t.text)
		if !ok {
			return nil, fmt.Errorf("query: unknown relation %s at offset %d", t.text, t.pos)
		}
		q.Relations = append(q.Relations, rel)
		if t := p.peek(); t.kind == tokKeyword && t.text == "NATURAL" {
			p.advance()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			continue
		}
		break
	}

	if t := p.peek(); t.kind == tokKeyword && t.text == "GROUP" {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			t, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, t.text)
			if p.peek().kind != tokComma {
				break
			}
			p.advance()
		}
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("query: trailing input at offset %d: %q", t.pos, t.text)
	}

	// Plain select attributes must be grouped (SQL rule).
	grouped := map[string]bool{}
	for _, g := range q.GroupBy {
		grouped[g] = true
	}
	for _, a := range plain {
		if !grouped[a] {
			return nil, fmt.Errorf("query: select attribute %s must appear in GROUP BY", a)
		}
	}
	return q, nil
}

func (p *parser) parseAggregate() (Aggregate, error) {
	var agg Aggregate
	if err := p.expectKeyword("SUM"); err != nil {
		return agg, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return agg, err
	}
	for {
		f, err := p.parseFactor()
		if err != nil {
			return agg, err
		}
		agg.Factors = append(agg.Factors, f)
		if p.peek().kind == tokStar {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return agg, err
	}
	if t := p.peek(); t.kind == tokKeyword && t.text == "AS" {
		p.advance()
		t, err := p.expect(tokIdent)
		if err != nil {
			return agg, err
		}
		agg.Alias = t.text
	}
	return agg, nil
}

func (p *parser) parseFactor() (Factor, error) {
	t := p.advance()
	switch t.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Factor{}, fmt.Errorf("query: bad number %q at offset %d", t.text, t.pos)
		}
		return Factor{IsConst: true, Const: v}, nil
	case tokIdent:
		if p.peek().kind == tokLParen {
			p.advance()
			arg, err := p.expect(tokIdent)
			if err != nil {
				return Factor{}, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return Factor{}, err
			}
			return Factor{Func: t.text, Attr: arg.text}, nil
		}
		return Factor{Attr: t.text}, nil
	default:
		return Factor{}, fmt.Errorf("query: expected factor at offset %d, got %q", t.pos, t.text)
	}
}
