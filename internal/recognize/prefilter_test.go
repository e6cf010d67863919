package recognize

import (
	"math/rand"
	"regexp"
	"regexp/syntax"
	"strings"
	"testing"
)

// prefilterOf derives the prefilter of a compiled pattern the way
// newRegex does.
func prefilterOf(t testing.TB, re *regexp.Regexp) prefilter {
	tree, err := syntax.Parse(re.String(), syntax.Perl)
	if err != nil {
		t.Fatal(err)
	}
	return newPrefilter(tree)
}

// randomPattern builds a pattern from literals over a small alphabet,
// (?i) groups, character classes, alternation, the repetitions ?*+{m,n}
// and \b.
func randomPattern(rng *rand.Rand, depth int) string {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	switch n := rng.Intn(10); {
	case depth > 3 || n < 3:
		return pick("a", "b", "s", "k", "K", "1", "-", "ab", "sk", "Sa", "1-", " ", "ſ")
	case n == 3:
		return "(?i:" + randomPattern(rng, depth+1) + ")"
	case n == 4:
		return pick(`[a-c]`, `[sk]`, `[0-9]`, `[^a]`, `\d`, `[-/]`, `[Kk]`, `\s`, `[A-Z]`, `.`)
	case n < 7:
		return randomPattern(rng, depth+1) + randomPattern(rng, depth+1)
	case n == 7:
		return "(?:" + randomPattern(rng, depth+1) + "|" + randomPattern(rng, depth+1) + ")"
	case n == 8:
		return "(?:" + randomPattern(rng, depth+1) + ")" + pick("?", "*", "+", "{1,2}", "{0,2}", "{2}", "{2,}")
	default:
		return pick(`\b`, `^`, "") + randomPattern(rng, depth+1) + pick(`\b`, `$`, "")
	}
}

// randomText builds a short text over runes the patterns use, both
// cases, and the two runes (?i) folds to ASCII: ſ and K.
func randomText(rng *rand.Rand) string {
	runes := []rune("aAbBsSſkKK12-/ c")
	var sb strings.Builder
	for range rng.Intn(10) {
		sb.WriteRune(runes[rng.Intn(len(runes))])
	}
	return sb.String()
}

// The prefilter never rejects a text the pattern matches, on random
// patterns and texts; and it does reject some.
func TestRegexPrefilterRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	matched, skipped := 0, 0
	for range 3000 {
		pattern := randomPattern(rng, 0)
		re, err := regexp.Compile(pattern)
		if err != nil {
			t.Fatalf("%q: %v", pattern, err)
		}
		pre := prefilterOf(t, re)
		for range 40 {
			text := randomText(rng)
			admitted := pre.admits(text)
			if re.MatchString(text) {
				matched++
				if !admitted {
					t.Fatalf("%q matches %q, which the prefilter %+v rejects", pattern, text, pre)
				}
			} else if !admitted {
				skipped++
			}
		}
	}
	if matched < 1000 || skipped < 1000 {
		t.Fatalf("%d matches, %d skips: the generator no longer exercises the prefilter", matched, skipped)
	}
}

// FuzzRegexPrefilter checks that a text a pattern matches is never
// skipped by the pattern's prefilter. It is seeded with every predefined
// pattern and random patterns of TestRegexPrefilterRandom's grammar.
func FuzzRegexPrefilter(f *testing.F) {
	for _, seed := range []struct {
		r    Recognizer
		text string
	}{
		{NewDate(), "Saturday August 8, 2010 8:00pm"}, {NewDate(), "ſep 1, 2010"},
		{NewYear(), "in 1999"}, {NewPrice(), "USD 4,500"}, {NewPhone(), "+1 212-555-0100"},
		{NewAddress(), "237 West 42nd street"}, {NewEmail(), "a.b@example.org"},
		{NewNumber(), "12.5"}, {NewISBN(), "978-3-16-148410-0"},
	} {
		f.Add(seed.r.(*RegexRecognizer).re.String(), seed.text)
	}
	rng := rand.New(rand.NewSource(2))
	for range 20 {
		f.Add(randomPattern(rng, 0), randomText(rng))
	}
	f.Fuzz(func(t *testing.T, pattern, text string) {
		if len(pattern) > 200 {
			return
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			return
		}
		if pre := prefilterOf(t, re); re.MatchString(text) && !pre.admits(text) {
			t.Fatalf("%q matches %q, which the prefilter %+v rejects", pattern, text, pre)
		}
	})
}
