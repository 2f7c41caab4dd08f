package sqldb

import (
	"reflect"
	"strings"
	"testing"
)

// TestLexUnicode: the lexer reads UTF-8, not bytes. A word of Unicode
// letters is one identifier, a character that is not a letter is refused
// as itself at its byte offset, and only ASCII letters fold — so no name
// turns into a keyword, on the way in or when printed back.
func TestLexUnicode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []token // without the EOF token
		err  string
	}{
		{in: "SELECT é FROM t", want: []token{
			{tokKeyword, "SELECT", 0}, {tokIdent, "é", 7}, {tokKeyword, "FROM", 10}, {tokIdent, "t", 15},
		}},
		{in: "select Émile_2, naïve FROM Café", want: []token{
			{tokKeyword, "SELECT", 0}, {tokIdent, "Émile_2", 7}, {tokSymbol, ",", 15},
			{tokIdent, "naïve", 17}, {tokKeyword, "FROM", 24}, {tokIdent, "café", 29},
		}},
		// strings.ToUpper spells ın as IN, ſet as SET, and folding İ
		// would spell İs as is: all three stay names.
		{in: "ın ſet İs", want: []token{
			{tokIdent, "ın", 0}, {tokIdent, "ſet", 4}, {tokIdent, "İs", 9},
		}},
		{in: "SELECT '€''s' FROM t", want: []token{
			{tokKeyword, "SELECT", 0}, {tokString, "€'s", 7}, {tokKeyword, "FROM", 16}, {tokIdent, "t", 21},
		}},
		{in: "SELECT € FROM t", err: "sqldb: unexpected character '€' at offset 7"},
		{in: "SELECT é FROM t WHERE é > ٣", err: "sqldb: unexpected character '٣' at offset 28"},
		{in: "SELECT é, 'x FROM t", err: "sqldb: unterminated string at offset 11"},
	} {
		toks, err := lex(tc.in, nil)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("lex(%q) error = %v, want %q", tc.in, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("lex(%q): %v", tc.in, err)
			continue
		}
		if got := toks[:len(toks)-1]; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("lex(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}

	db := Open()
	mustExec(t, db, "CREATE TABLE café (é INT, Émile TEXT, İs INT)")
	mustExec(t, db, "INSERT INTO Café VALUES (1, 'un', 10), (2, 'deux', 20)")
	q := "SELECT Émile, İs FROM café WHERE é > 1 ORDER BY é"
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	printed := stmt.(*SelectStmt).String()
	again, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of %q: %v", printed, err)
	}
	if s := again.(*SelectStmt).String(); s != printed {
		t.Fatalf("round trip unstable:\n%s\n%s", printed, s)
	}
	for _, sql := range []string{q, printed} {
		res := queryRows(t, db, sql)
		if !reflect.DeepEqual(res.Columns, []string{"Émile", "İs"}) || len(res.Rows) != 1 ||
			res.Rows[0][0].Str != "deux" || res.Rows[0][1].Int != 20 {
			t.Errorf("%s = %v %v", sql, res.Columns, res.Rows)
		}
	}
}

// TestLexKeywordsAnyCase: every reserved word is found in any ASCII case
// and comes back in its one canonical spelling.
func TestLexKeywordsAnyCase(t *testing.T) {
	for kw := range keywords {
		for _, w := range []string{kw, strings.ToLower(kw), strings.ToLower(kw[:1]) + kw[1:]} {
			if got, ok := keyword(w); !ok || got != kw {
				t.Errorf("keyword(%q) = %q, %v; want %q", w, got, ok, kw)
			}
		}
	}
}

// TestLexAllocs pins the lexer's allocation budget: a one-join star
// query, as the federation's workloads send them, costs the token slice
// and nothing per token — and nothing at all in a slice Parse recycles.
func TestLexAllocs(t *testing.T) {
	const q = "SELECT r3.grp, COUNT(*) AS n, SUM(r3.v) AS total FROM r3 JOIN v5 ON r3.k = v5.k " +
		"WHERE r3.v > 42 GROUP BY r3.grp ORDER BY r3.grp"
	var toks []token
	for _, tc := range []struct {
		slice  string
		reuse  bool
		budget float64
	}{{"a fresh", false, 1}, {"a recycled", true, 0}} {
		allocs := testing.AllocsPerRun(100, func() {
			if !tc.reuse {
				toks = nil
			}
			var err error
			if toks, err = lex(q, toks); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.budget {
			t.Fatalf("lexing a star query into %s token slice costs %.0f allocs, budget is %.0f", tc.slice, allocs, tc.budget)
		}
	}
}
