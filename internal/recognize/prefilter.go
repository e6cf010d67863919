package recognize

import (
	"regexp/syntax"
	"slices"
	"strings"
	"unicode/utf8"
)

// prefilter is what every match of a regular expression is known to
// contain: an AND of clauses, each an OR of literals. A text that misses
// every literal of some clause holds no match, so Find skips it without
// running the regexp. It is derived from the pattern's syntax tree, a
// sound under-approximation: it may admit a text without a match, never
// reject one with a match. "Every match holds a digit" is one clause.
type prefilter []check

// check is one clause compiled for the test: its single-byte literals
// (folded letters in both cases) in one set, and the other literals.
type check struct {
	bytes string
	lits  []literal
}

// clause is satisfied by a text holding any of its literals.
type clause []literal

// literal is a string a match contains, compared exactly or, under
// (?i), case-insensitively; a folded literal is lower-case ASCII.
type literal struct {
	s    string
	fold bool
}

// Bounds keep the analysis and the check cheap: a character class with
// more runes than maxClassRunes, or a clause with more literals than
// maxClauseLits, requires nothing; an alternation whose branches would
// combine into more than maxCombos clauses combines only the first
// clauses of each (dropping a clause is always sound).
const (
	maxClassRunes = 16
	maxClauseLits = 32
	maxCombos     = 64
)

// newPrefilter derives the prefilter of a parsed pattern.
func newPrefilter(re *syntax.Regexp) prefilter {
	var p prefilter
	for _, c := range required(re) {
		var ch check
		for _, l := range c {
			switch b := l.s[0]; {
			case len(l.s) > 1 || b >= utf8.RuneSelf:
				ch.lits = append(ch.lits, l)
			case l.fold && 'a' <= b && b <= 'z':
				ch.bytes += string(b) + string(b-'a'+'A')
				switch b {
				case 's':
					ch.lits = append(ch.lits, literal{s: "ſ"})
				case 'k':
					ch.lits = append(ch.lits, literal{s: "\u212a"})
				}
			default:
				ch.bytes += string(b)
			}
		}
		p = append(p, ch)
	}
	// Byte sets first: they are the cheapest test.
	slices.SortStableFunc(p, func(x, y check) int { return len(x.lits) - len(y.lits) })
	return p
}

// admits reports whether text holds a literal of every clause.
func (p prefilter) admits(text string) bool {
	for _, ch := range p {
		if !strings.ContainsAny(text, ch.bytes) && !slices.ContainsFunc(ch.lits, func(l literal) bool { return l.in(text) }) {
			return false
		}
	}
	return true
}

// in reports whether text holds the literal.
func (l literal) in(text string) bool {
	if !l.fold {
		return strings.Contains(text, l.s)
	}
	for i := range len(text) {
		if hasFoldPrefix(text[i:], l.s) {
			return true
		}
	}
	return false
}

// hasFoldPrefix reports whether s starts with lit (lower-case ASCII)
// under the simple case folding of regexp's (?i): an ASCII letter
// matches either case, 's' also matches ſ (U+017F) and 'k' also K
// (U+212A), the only other runes folding to ASCII. It allocates nothing.
func hasFoldPrefix(s, lit string) bool {
	for j := 0; j < len(lit); j++ {
		if len(s) == 0 {
			return false
		}
		if c := s[0]; c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != lit[j] {
				return false
			}
			s = s[1:]
			continue
		}
		r, n := utf8.DecodeRuneInString(s)
		if !(r == 'ſ' && lit[j] == 's' || r == 'K' && lit[j] == 'k') {
			return false
		}
		s = s[n:]
	}
	return true
}

// required returns the clauses every string re matches satisfies.
func required(re *syntax.Regexp) []clause {
	switch re.Op {
	case syntax.OpLiteral:
		if l, ok := literalOf(re); ok {
			return []clause{{l}}
		}
	case syntax.OpCharClass:
		var c clause
		for i := 0; i < len(re.Rune); i += 2 {
			if len(c)+int(re.Rune[i+1]-re.Rune[i]) >= maxClassRunes {
				return nil
			}
			for r := re.Rune[i]; r <= re.Rune[i+1]; r++ {
				c = append(c, literal{s: string(r)})
			}
		}
		if len(c) > 0 {
			return []clause{c}
		}
	case syntax.OpCapture, syntax.OpPlus:
		return required(re.Sub[0])
	case syntax.OpRepeat:
		if re.Min >= 1 {
			return required(re.Sub[0])
		}
	case syntax.OpConcat:
		var out []clause
		for _, sub := range re.Sub {
			out = append(out, required(sub)...)
		}
		return simplify(out)
	case syntax.OpAlternate:
		out := required(re.Sub[0])
		for _, sub := range re.Sub[1:] {
			out = either(out, required(sub))
		}
		return out
	}
	return nil
}

// literalOf returns the literal of an OpLiteral node; a folded literal
// with a non-ASCII rune is left out (its case orbit is not checked).
func literalOf(re *syntax.Regexp) (literal, bool) {
	s := string(re.Rune)
	if re.Flags&syntax.FoldCase == 0 {
		return literal{s: s}, true
	}
	for _, r := range re.Rune {
		if r >= utf8.RuneSelf {
			return literal{}, false
		}
	}
	return literal{s: strings.ToLower(s), fold: true}, true
}

// either returns the clauses of "a or b": one clause per pair of
// clauses, holding the literals of both.
func either(a, b []clause) []clause {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	for len(a)*len(b) > maxCombos {
		a, b = a[:max(len(a)/2, 1)], b[:max(len(b)/2, 1)]
	}
	out := make([]clause, 0, len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			out = append(out, append(slices.Clip(x), y...))
		}
	}
	return simplify(out)
}

// simplify drops redundant literals (one implying another literal of
// its clause), clauses grown past maxClauseLits, and clauses implied by
// another clause, keeping the order; of two equivalent ones it keeps the
// first.
func simplify(cs []clause) []clause {
	var out []clause
	for _, c := range cs {
		var kept clause
		for i, l := range c {
			if !redundant(c, i, func(m literal) bool { return implies(l, m) }, func(m literal) bool { return implies(m, l) }) {
				kept = append(kept, l)
			}
		}
		if len(kept) <= maxClauseLits {
			out = append(out, kept)
		}
	}
	var res []clause
	for i, c := range out {
		if !redundant(out, i, func(d clause) bool { return subsumes(d, c) }, func(d clause) bool { return subsumes(c, d) }) {
			res = append(res, c)
		}
	}
	return res
}

// redundant reports whether xs[i] can go: another element is implied by
// it (weaker, for literals of a clause) or implies it (stronger, for
// clauses), as tells says; of two equivalent elements (back says so
// too) the later goes.
func redundant[T any](xs []T, i int, tells, back func(T) bool) bool {
	for j, x := range xs {
		if j != i && tells(x) && (!back(x) || j < i) {
			return true
		}
	}
	return false
}

// implies reports whether a text holding l is sure to hold m.
func implies(l, m literal) bool {
	switch {
	case !m.fold:
		return !l.fold && strings.Contains(l.s, m.s)
	case l.fold:
		return strings.Contains(l.s, m.s)
	default:
		return m.in(l.s)
	}
}

// subsumes reports whether clause d implies clause c: each literal of d
// implies some literal of c.
func subsumes(d, c clause) bool {
	for _, l := range d {
		if !slices.ContainsFunc(c, func(m literal) bool { return implies(l, m) }) {
			return false
		}
	}
	return true
}
