package sqlmini

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// lexReference is the lexer this package shipped before the pull lexer: it
// tokenises the whole input into a slice up front, classifying bytes with
// package unicode. Kept as the differential oracle.
func lexReference(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_' || input[i] == '.') {
				i++
			}
			raw := input[start:i]
			toks = append(toks, token{kind: tokIdent, text: strings.ToLower(raw), raw: raw, pos: start})
		case unicode.IsDigit(rune(c)) || (c == '-' && i+1 < n && unicode.IsDigit(rune(input[i+1]))):
			start := i
			i++
			for i < n && unicode.IsDigit(rune(input[i])) {
				i++
			}
			toks = append(toks, token{kind: tokNumber, text: input[start:i], raw: input[start:i], pos: start})
		case c == '>' || c == '<':
			start := i
			i++
			if i < n && input[i] == '=' {
				i++
			}
			toks = append(toks, token{kind: tokOp, text: input[start:i], raw: input[start:i], pos: start})
		case c == '=':
			toks = append(toks, token{kind: tokOp, text: "=", raw: "=", pos: i})
			i++
		case c == '(' || c == ')' || c == ',' || c == ';' || c == '*':
			toks = append(toks, token{kind: tokPunct, text: string(c), raw: string(c), pos: i})
			i++
		default:
			return nil, fmt.Errorf("sqlmini: unexpected character %q at position %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

// lexAll drains the pull lexer the way lexReference reports: every token, or
// the first error.
func lexAll(input string) ([]token, error) {
	lx := lexer{input: input}
	var toks []token
	for {
		t := lx.next()
		if lx.err != nil {
			return nil, lx.err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// FuzzSqlminiParse: Parse never panics, and the pull lexer's tokens and
// error equal lexReference's on every input. The seeds are hand-picked
// statements and byte strings, and 5 000 random strings over the bytes the
// lexer distinguishes, high bytes included.
func FuzzSqlminiParse(f *testing.F) {
	for _, in := range []string{
		"", " ", "select A1 from R where A1 >= 10 and A1 < 20;",
		"SeLeCt MyCol FrOm My.Tab WhErE MyCol<=-5", "a-1", "a - 1", "-", "--1", "1-2",
		"select a from r where a # 5", "select count(*) from r", "x.y.z", "_a9", "9a",
		"a<=>=b", "caf\xc3\xa9", "\xc3\xb5 = 1", "\xb2", "\xe9t\xe9", "A\xaaB", "tab\there\r\n",
	} {
		f.Add(in)
	}
	const alphabet = "abzAZ_.09 -<>=(),;*#\t\n\x00\x7f\x80\xaa\xb2\xb5\xc3\xd7\xe9\xff"
	rng := rand.New(rand.NewPCG(1, 2))
	for range 5000 {
		b := make([]byte, rng.IntN(12))
		for j := range b {
			b[j] = alphabet[rng.IntN(len(alphabet))]
		}
		f.Add(string(b))
	}
	f.Fuzz(func(t *testing.T, in string) {
		Parse(in)
		want, wantErr := lexReference(in)
		got, gotErr := lexAll(in)
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("lex(%q): err %v, reference %v", in, gotErr, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("lex(%q): %+v, reference %+v", in, got, want)
		}
	})
}

// TestLexErrorOutranksGrammarError pins the error precedence of lexing the
// whole input first: a rejected byte is reported even when a grammar error
// precedes it or the statement would otherwise have ended there.
func TestLexErrorOutranksGrammarError(t *testing.T) {
	for _, in := range []string{
		"select a a from r where a # 5", // grammar error first, bad byte later
		"select a from r #",             // bad byte where end of input is legal
		"bogus statement ?",
	} {
		_, err := Parse(in)
		if err == nil || !strings.Contains(err.Error(), "unexpected character") {
			t.Errorf("Parse(%q) = %v, want the lexer's unexpected-character error", in, err)
		}
	}
	if _, err := Parse("select a a from r"); err == nil || strings.Contains(err.Error(), "unexpected character") {
		t.Errorf("grammar error lost: %v", err)
	}
}

// TestParseSelectAllocs bounds the paper template's parse at the statement
// node plus one: no token slice, no lower-cased copies of lower-case words.
func TestParseSelectAllocs(t *testing.T) {
	const stmt = "select a from r where a >= 1048577 and a < 1048593"
	if n := testing.AllocsPerRun(200, func() {
		if _, err := Parse(stmt); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("Parse(%q) allocates %v times, want <= 2", stmt, n)
	}
}
