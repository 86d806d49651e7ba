// Package sqlmini implements a small SQL front end for the kernel, covering
// exactly the statement shapes the paper's workloads use:
//
//	SELECT Ai FROM R WHERE Ai >= low AND Ai < high;
//	SELECT COUNT(*) FROM R WHERE A BETWEEN 10 AND 20;
//	SELECT SUM(A) FROM R WHERE A > 5;
//	INSERT INTO R VALUES (1, 2, 3);
//	DELETE FROM R WHERE A = 7;
//
// Predicates compile to the kernel's half-open range [Lo, Hi); >, <=, =,
// and BETWEEN are rewritten into it. The executor bridges parsed statements
// to an engine.
package sqlmini

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokPunct // ( ) , ; *
	tokOp    // comparison operators
)

type token struct {
	kind tokenKind
	text string // keywords/idents are lower-cased
	raw  string // original spelling (for error messages / identifiers)
	pos  int
}

// lexer is a pull lexer: next scans one token on demand, so parsing builds
// no token slice. After a byte no token can start with, err holds the reason
// and next returns tokEOF from then on.
type lexer struct {
	input string
	pos   int
	err   error
}

// isLetter classifies a byte: a range test for ASCII — every byte of a real
// statement — and the Latin-1 reading (which has no digits) for the rest.
func isLetter(c byte) bool {
	return 'a' <= c|0x20 && c|0x20 <= 'z' || c >= 0x80 && unicode.IsLetter(rune(c))
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// lower returns raw lower-cased, allocating only when some byte needs it.
func lower(raw string) string {
	for i := 0; i < len(raw); i++ {
		if c := raw[i]; 'A' <= c && c <= 'Z' || c >= 0x80 {
			return strings.ToLower(raw)
		}
	}
	return raw
}

// next scans the next token. Identifiers keep their raw spelling in raw;
// text holds the lower-cased form used for keyword matching.
func (l *lexer) next() token {
	input, i, n := l.input, l.pos, len(l.input)
	for i < n && (input[i] == ' ' || input[i] == '\t' || input[i] == '\n' || input[i] == '\r') {
		i++
	}
	start, kind := i, tokPunct
	switch {
	case i >= n: // also after an error, which parks pos at n
		kind = tokEOF
	case isLetter(input[i]) || input[i] == '_':
		kind = tokIdent
		for i < n && (isLetter(input[i]) || isDigit(input[i]) || input[i] == '_' || input[i] == '.') {
			i++
		}
	case isDigit(input[i]) || (input[i] == '-' && i+1 < n && isDigit(input[i+1])):
		kind = tokNumber
		for i++; i < n && isDigit(input[i]); i++ {
		}
	case input[i] == '>' || input[i] == '<':
		kind = tokOp
		if i++; i < n && input[i] == '=' {
			i++
		}
	case input[i] == '=':
		kind = tokOp
		i++
	case strings.IndexByte("(),;*", input[i]) >= 0:
		i++
	default:
		l.err = fmt.Errorf("sqlmini: unexpected character %q at position %d", input[i], i)
		start, i, kind = n, n, tokEOF
	}
	l.pos = i
	t := token{kind: kind, text: input[start:i], raw: input[start:i], pos: start}
	if kind == tokIdent {
		t.text = lower(t.raw)
	}
	return t
}
