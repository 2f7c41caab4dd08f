package sqldb

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // punctuation and operators
	tokKeyword // reserved words, upper-cased
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; identifiers ASCII-lower-cased
	pos  int    // byte offset in the input, for error messages
}

// keywords maps each reserved word to itself. The lexer looks a word up
// by its ASCII upper-case spelling and takes the token text from the
// map, so a keyword costs no allocation however it was written.
var keywords = map[string]string{}

// maxKeywordLen is the length of the longest reserved word, DISTINCT.
const maxKeywordLen = 8

func init() {
	for _, k := range strings.Fields(`
		SELECT FROM WHERE JOIN ON GROUP BY ORDER ASC DESC LIMIT AND OR NOT AS
		CREATE TABLE VIEW INSERT INTO VALUES EXPLAIN NULL TRUE FALSE INT
		FLOAT TEXT BOOL COUNT SUM AVG MIN MAX INNER DISTINCT UPDATE SET
		DELETE IN BETWEEN LIKE OFFSET IS INDEX`) {
		keywords[k] = k
	}
}

// lex tokenizes a SQL string into toks[:0]. Token texts are substrings
// of the input wherever the input already spells them, so a statement
// written with upper-case keywords and lower-case names costs at most
// one allocation, the token slice, and none when toks is large enough.
func lex(input string, toks []token) ([]token, error) {
	// SQL runs about two and a half bytes a token (a qualified column
	// "f.k" is three tokens in three bytes, keywords are longer), so half
	// the input length holds a statement's tokens without regrowing.
	if need := len(input)/2 + 2; cap(toks) < need {
		toks = make([]token, 0, need)
	}
	toks = toks[:0]
	i := 0
	n := len(input)
	for i < n {
		c, size := rune(input[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(input[i:])
		}
		switch {
		case unicode.IsSpace(c):
			i += size
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case isDigit(input[i]) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			start := i
			seenDot := false
			for i < n && (isDigit(input[i]) || (input[i] == '.' && !seenDot)) {
				if input[i] == '.' {
					seenDot = true
				}
				i++
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case c == '\'':
			start := i
			text, end, ok := lexString(input, i)
			if !ok {
				return nil, fmt.Errorf("sqldb: unterminated string at offset %d", start)
			}
			i = end
			toks = append(toks, token{tokString, text, start})
		case isIdentStart(c):
			start := i
			for i += size; i < n; i += size {
				c, size = rune(input[i]), 1
				if c >= utf8.RuneSelf {
					c, size = utf8.DecodeRuneInString(input[i:])
				}
				if !isIdentPart(c) {
					break
				}
			}
			word := input[start:i]
			if kw, ok := keyword(word); ok {
				toks = append(toks, token{tokKeyword, kw, start})
			} else {
				toks = append(toks, token{tokIdent, foldIdent(word), start})
			}
		default:
			start := i
			// Two-character operators first.
			if i+1 < n {
				two := input[i : i+2]
				switch two {
				case "<=", ">=", "<>", "!=":
					toks = append(toks, token{tokSymbol, two, start})
					i += 2
					continue
				}
			}
			switch c {
			case '(', ')', ',', '*', '=', '<', '>', '+', '-', '/', '.', ';':
				toks = append(toks, token{tokSymbol, input[i : i+1], start})
				i++
			default:
				return nil, fmt.Errorf("sqldb: unexpected character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

// lexString reads the string literal whose opening quote is at
// input[start]. It returns the literal's value, the offset just past its
// closing quote, and false if the input ends first. A literal without
// an escaped quote is a substring of the input.
func lexString(input string, start int) (text string, end int, ok bool) {
	escaped := false
	for i := start + 1; i < len(input); i++ {
		if input[i] != '\'' {
			continue
		}
		if i+1 < len(input) && input[i+1] == '\'' {
			escaped = true
			i++
			continue
		}
		text = input[start+1 : i]
		if escaped {
			text = strings.ReplaceAll(text, "''", "'")
		}
		return text, i + 1, true
	}
	return "", 0, false
}

// keyword returns the canonical spelling of word if it is a reserved
// word, matched ASCII case-insensitively: a word with any other letter
// is never a keyword.
func keyword(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	var up [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			return "", false
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	kw, ok := keywords[string(up[:len(word)])]
	return kw, ok
}

// foldIdent lower-cases an identifier's ASCII letters, allocating only
// when it has one to fold. Other letters keep their case, as keyword
// matching ignores them: folding İ to i would print the name "İs" back
// as the keyword IS.
func foldIdent(word string) string {
	i := 0
	for i < len(word) && !('A' <= word[i] && word[i] <= 'Z') {
		i++
	}
	if i == len(word) {
		return word
	}
	var b strings.Builder
	b.Grow(len(word))
	b.WriteString(word[:i])
	for ; i < len(word); i++ {
		c := word[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return b.String()
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_'
}

func isIdentPart(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'
}
