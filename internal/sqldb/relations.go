package sqldb

// Relations lists the relations a statement reads, in order: the names
// after FROM (a comma list, each name optionally aliased, with or
// without AS) and after each JOIN, spelled as the lexer folds them, so
// "FROM T" and "FROM t" both name t. It walks the lexer's tokens on a
// pooled buffer and builds no parse tree. A shape it does not read — a
// parenthesized source such as a subquery, or text the lexer rejects —
// returns nil, as does a statement with no FROM; callers take nil to
// mean "any relation".
func Relations(sql string) []string {
	buf := tokenBufs.Get().(*[]token)
	toks, err := lex(sql, *buf)
	defer releaseTokens(buf, toks)
	if err != nil {
		return nil
	}
	var rels []string
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.kind != tokKeyword || t.text != "FROM" && t.text != "JOIN" {
			continue
		}
		for {
			i++
			if toks[i].kind != tokIdent {
				return nil
			}
			rels = append(rels, toks[i].text)
			if next := toks[i+1]; next.kind == tokKeyword && next.text == "AS" {
				i++
			}
			if toks[i+1].kind == tokIdent {
				i++ // the alias
			}
			if t.text != "FROM" || toks[i+1].kind != tokSymbol || toks[i+1].text != "," {
				break
			}
			i++
		}
	}
	return rels
}
