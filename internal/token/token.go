// Package token is the single tokenizer shared by every layer that needs
// one: the fts inverted index, the stats selectivity estimator and the
// query-side MATCH and hybrid-search tokens all tokenize through here, so
// their notions of "token" can never drift apart. It is a leaf package (no
// intra-repo imports), which is what lets both internal/fts and
// internal/stats depend on it without a cycle.
//
// A token is a maximal run of Unicode letters or digits, lowercased with
// unicode.ToLower. Tokenization is therefore unicode-safe and idempotent
// under lowercasing.
package token

import (
	"sort"
	"strings"
	"unicode"
)

// isTokenRune reports whether r belongs inside a token.
func isTokenRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Tokenize lowercases s and splits it into maximal letter/digit runs.
func Tokenize(s string) []string {
	var tokens []string
	var cur strings.Builder
	for _, r := range s {
		if isTokenRune(r) {
			cur.WriteRune(unicode.ToLower(r))
			continue
		}
		if cur.Len() > 0 {
			tokens = append(tokens, cur.String())
			cur.Reset()
		}
	}
	if cur.Len() > 0 {
		tokens = append(tokens, cur.String())
	}
	return tokens
}

// Unique returns the deduplicated, sorted token set of s.
func Unique(s string) []string {
	toks := Tokenize(s)
	if len(toks) == 0 {
		return nil
	}
	sort.Strings(toks)
	out := toks[:1]
	for _, t := range toks[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}
