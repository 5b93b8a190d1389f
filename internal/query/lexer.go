// Package query models F-IVM input queries — SUM aggregates of products
// of per-attribute functions over natural joins, with optional group-by —
// and provides a parser for a small SQL subset:
//
//	SELECT SUM(gB(B) * gC(C) * gD(D))
//	FROM R NATURAL JOIN S
//	GROUP BY A
//
// Supported select items: SUM(<factor> {* <factor>}) where a factor is a
// numeric literal, an attribute name, or a function application f(Attr);
// plain attributes may be listed alongside and must then appear in GROUP
// BY. The catalog maps relation names to schemas; which attributes are
// categorical is the application layer's to say (fivm.FeatureSpec).
package query

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token types.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokStar
	tokComma
	tokLParen
	tokRParen
	tokKeyword
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokStar:
		return "'*'"
	case tokComma:
		return "','"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokKeyword:
		return "keyword"
	default:
		return "token"
	}
}

// token is one lexical token with its source position (byte offset).
type token struct {
	kind tokenKind
	text string
	pos  int
}

// keywords recognized case-insensitively; stored upper-case.
var keywords = map[string]bool{
	"SELECT": true, "SUM": true, "FROM": true, "NATURAL": true,
	"JOIN": true, "GROUP": true, "BY": true, "AS": true,
}

// lexer tokenizes a query string.
type lexer struct {
	src []rune
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: []rune(src)} }

// next returns the next token, or an error for unrecognized input.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '*':
		l.pos++
		return token{kind: tokStar, text: "*", pos: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == '\'':
		l.pos++
		var b strings.Builder
		for l.pos < len(l.src) && l.src[l.pos] != '\'' {
			b.WriteRune(l.src[l.pos])
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, fmt.Errorf("query: unterminated string literal at offset %d", start)
		}
		l.pos++ // closing quote
		return token{kind: tokString, text: b.String(), pos: start}, nil
	case unicode.IsDigit(c) || c == '.' || c == '-':
		l.pos++
		for l.pos < len(l.src) && (unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '.' || l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
			l.pos++
		}
		return token{kind: tokNumber, text: string(l.src[start:l.pos]), pos: start}, nil
	case unicode.IsLetter(c) || c == '_':
		l.pos++
		for l.pos < len(l.src) && (unicode.IsLetter(l.src[l.pos]) || unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '_') {
			l.pos++
		}
		text := string(l.src[start:l.pos])
		if keywords[strings.ToUpper(text)] {
			return token{kind: tokKeyword, text: strings.ToUpper(text), pos: start}, nil
		}
		return token{kind: tokIdent, text: text, pos: start}, nil
	default:
		return token{}, fmt.Errorf("query: unexpected character %q at offset %d", c, start)
	}
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
