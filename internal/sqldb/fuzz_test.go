package sqldb

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// lexErrOffset reads the byte offset a lexer error names.
var lexErrOffset = regexp.MustCompile(`at offset (\d+)$`)

// FuzzParse feeds arbitrary byte strings through the SQL parser: it
// must never panic, and whatever it accepts must render back to SQL
// that parses to the same rendering (round-trip stability). Underneath,
// the lexer must classify a word as a keyword exactly when
// strings.ToUpper spells one and the word is ASCII (ToUpper also maps ı
// and ſ onto I and S; keyword matching deliberately does not), and
// every error it reports must name a rune boundary inside the input.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM t",
		"SELECT a, b AS c FROM t JOIN u ON t.a = u.b WHERE a > 1 AND b IN (1,2) ORDER BY a DESC LIMIT 3 OFFSET 1",
		"CREATE TABLE t (a INT, b TEXT)",
		"CREATE VIEW v AS SELECT a FROM t WHERE a BETWEEN 1 AND 2",
		"CREATE INDEX i ON t (a)",
		"INSERT INTO t VALUES (1, 'x''y'), (NULL, 'z')",
		"UPDATE t SET a = a + 1 WHERE b LIKE '%x%'",
		"DELETE FROM t WHERE a IS NOT NULL",
		"EXPLAIN SELECT COUNT(*) FROM t GROUP BY a",
		"SELECT -1 + 2 * (3 - 4) / 5 FROM t",
		"SELECT 'unterminated",
		"SELECT \x00 FROM t",
		"))))((((",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if !utf8.ValidString(input) || len(input) > 4096 {
			t.Skip()
		}
		toks, err := lex(input, nil)
		if err != nil {
			m := lexErrOffset.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("lex(%q) error names no offset: %v", input, err)
			}
			off, _ := strconv.Atoi(m[1])
			if off >= len(input) || !utf8.RuneStart(input[off]) {
				t.Fatalf("lex(%q) error offset %d is not a rune boundary inside the input: %v", input, off, err)
			}
		}
		for _, tok := range toks {
			if tok.kind != tokKeyword && tok.kind != tokIdent {
				continue
			}
			// Keyword spellings and folded names keep the word's length.
			w := input[tok.pos : tok.pos+len(tok.text)]
			_, kw := keywords[strings.ToUpper(w)]
			if want := kw && isASCII(w); (tok.kind == tokKeyword) != want {
				t.Fatalf("lex(%q): word %q lexed as %q (kind %d), keyword=%v", input, w, tok.text, tok.kind, want)
			}
		}
		stmt, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		sel, ok := stmt.(*SelectStmt)
		if !ok {
			return
		}
		rendered := sel.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected own rendering %q: %v", input, rendered, err)
		}
		if s2, ok := again.(*SelectStmt); !ok || s2.String() != rendered {
			t.Fatalf("unstable rendering: %q -> %q", rendered, s2.String())
		}
	})
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// FuzzLikeMatch checks the wildcard matcher never panics and honors
// the trivial invariants on arbitrary inputs.
func FuzzLikeMatch(f *testing.F) {
	f.Add("mississippi", "%iss%")
	f.Add("", "")
	f.Add("abc", "a_c")
	f.Fuzz(func(t *testing.T, s, p string) {
		if len(s) > 256 || len(p) > 64 {
			t.Skip()
		}
		got := likeMatch(s, p)
		if p == "%" && !got {
			t.Fatalf("%% must match %q", s)
		}
		if !strings.ContainsAny(p, "%_") && got != (s == p) {
			t.Fatalf("wildcard-free pattern %q vs %q: got %t", p, s, got)
		}
	})
}
