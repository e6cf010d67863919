package recognize

import (
	"fmt"
	"regexp"
	"regexp/syntax"
	"sync"
)

// RegexRecognizer matches a user-supplied regular expression. Matches have
// full confidence: the user asserted the pattern.
type RegexRecognizer struct {
	name string
	re   *regexp.Regexp
	conf float64
	// pre holds the literals every match of re contains; Find skips
	// text it does not admit (see prefilter).
	pre prefilter
}

// NewRegex compiles a user-defined regular-expression recognizer.
func NewRegex(name, pattern string) (*RegexRecognizer, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("recognize: bad pattern for %s: %w", name, err)
	}
	return newRegex(name, re, 1), nil
}

// mustRegex builds a predefined recognizer from a known-good pattern.
func mustRegex(name, pattern string, conf float64) *RegexRecognizer {
	return newRegex(name, regexp.MustCompile(pattern), conf)
}

func newRegex(name string, re *regexp.Regexp, conf float64) *RegexRecognizer {
	r := &RegexRecognizer{name: name, re: re, conf: conf}
	// re compiled, so its source parses with the flags regexp uses.
	if tree, err := syntax.Parse(re.String(), syntax.Perl); err == nil {
		r.pre = newPrefilter(tree)
	}
	return r
}

// Name implements Recognizer.
func (r *RegexRecognizer) Name() string { return r.name }

// Find implements Recognizer.
func (r *RegexRecognizer) Find(text string) []Match {
	if !r.pre.admits(text) {
		return nil
	}
	var out []Match
	for _, loc := range r.re.FindAllStringIndex(text, -1) {
		out = append(out, Match{
			Start:      loc[0],
			End:        loc[1],
			Value:      text[loc[0]:loc[1]],
			Confidence: r.conf,
		})
	}
	return out
}

// Predefined recognizer patterns. These mirror the paper's "system
// predefined" family (addresses, dates, phone numbers, etc.). Patterns are
// deliberately permissive: recognizers are hints, and wrapper inference
// tolerates both false positives and false negatives.
const (
	monthNames = `(?:Jan(?:uary)?|Feb(?:ruary)?|Mar(?:ch)?|Apr(?:il)?|May|Jun(?:e)?|Jul(?:y)?|Aug(?:ust)?|Sep(?:t(?:ember)?)?|Oct(?:ober)?|Nov(?:ember)?|Dec(?:ember)?)`
	dayNames   = `(?:Mon(?:day)?|Tue(?:s(?:day)?)?|Wed(?:nesday)?|Thu(?:rs(?:day)?)?|Fri(?:day)?|Sat(?:urday)?|Sun(?:day)?)`
	timeOfDay  = `(?:[01]?\d|2[0-3]):[0-5]\d\s?(?:[ap]\.?m?\.?)?|(?:[01]?\d|2[0-3])\s?(?:[ap]\.?m?\.?)`
	streetKind = `(?:St(?:reet)?|Ave(?:nue)?|Blvd|Boulevard|R(?:oa)?d|Dr(?:ive)?|Lane|Ln|Way|Plaza|Pl(?:ace)?|Court|Ct|Square|Sq|Broadway)`
)

// The predefined recognizers are immutable once built (a compiled regexp
// is safe for concurrent use), so each family compiles exactly once per
// process via sync.OnceValue and every New* call returns the shared
// instance — wrapper inference resolves recognizers per source, and
// compiling these alternation-heavy patterns sat on that hot path.

// NewDate recognizes calendar dates in the formats that dominate
// template-generated pages: "Monday May 11, 8:00pm", "Saturday August 8,
// 2010 8:00pm", "May 29 7:00p", "2010-05-29", "05/29/2010", "June 2011".
func NewDate() Recognizer { return dateRec() }

var dateRec = sync.OnceValue(func() Recognizer {
	pat := `(?i)(?:` +
		dayNames + `,?\s+` + monthNames + `\s+\d{1,2}\b(?:\s*,\s*\d{4})?(?:,?\s*(?:` + timeOfDay + `))?` + // Monday May 11, 8:00pm
		`|` + monthNames + `\s+\d{4}\b` + // June 2011
		`|` + monthNames + `\s+\d{1,2}\b(?:\s*,\s*\d{4})?(?:,?\s*(?:` + timeOfDay + `))?` + // May 29, 2010 / May 29 7:00p
		`|\d{1,2}\s+` + monthNames + `\s+\d{4}` + // 29 May 2010
		`|\d{4}-\d{2}-\d{2}` + // ISO
		`|\d{1,2}/\d{1,2}/\d{2,4}` + // US slashes
		`)`
	return mustRegex("date", pat, 0.95)
})

// NewYear recognizes four-digit years in the plausible publication range.
func NewYear() Recognizer { return yearRec() }

var yearRec = sync.OnceValue(func() Recognizer {
	return mustRegex("year", `\b(?:1[89]\d{2}|20\d{2})\b`, 0.8)
})

// NewPrice recognizes currency amounts: "$12.99", "USD 4,500", "£7",
// "12.99 EUR".
func NewPrice() Recognizer { return priceRec() }

var priceRec = sync.OnceValue(func() Recognizer {
	pat := `(?:[$£€¥]\s?\d{1,3}(?:,\d{3})*(?:\.\d{2})?` +
		`|(?:USD|EUR|GBP|AUD|CAD)\s?\d{1,3}(?:,\d{3})*(?:\.\d{2})?` +
		`|\d{1,3}(?:,\d{3})*(?:\.\d{2})?\s?(?:USD|EUR|GBP|dollars|euros))`
	return mustRegex("price", pat, 0.95)
})

// NewPhone recognizes North-American and international phone numbers.
func NewPhone() Recognizer { return phoneRec() }

var phoneRec = sync.OnceValue(func() Recognizer {
	pat := `(?:\+?1[\s.-]?)?(?:\(\d{3}\)|\d{3})[\s.-]\d{3}[\s.-]\d{4}\b` +
		`|\+\d{1,3}(?:[\s.-]\d{1,4}){2,6}\b`
	return mustRegex("phone", pat, 0.9)
})

// NewAddress recognizes street addresses ("237 West 42nd street",
// "4 Penn Plaza", "Delancey St") plus city/state/zip fragments. Addresses
// are the loosest predefined type — the paper treats them as a single
// entity type covering several textual shapes.
func NewAddress() Recognizer { return addressRec() }

var addressRec = sync.OnceValue(func() Recognizer {
	pat := `(?i)(?:\d{1,5}\s+(?:(?:\d+(?:st|nd|rd|th)|[A-Za-z']+)\.?\s+){0,3}` + streetKind + `\b` + // 237 West 42nd street, 4 Penn Plaza
		`|\b[A-Z][a-z]+(?:\s[A-Z][a-z]+)?\s+` + streetKind + `\b` + // Delancey St
		`|\b[A-Z][a-z]+(?:\s[A-Z][a-z]+)*,\s*[A-Z]{2}\s+\d{5}\b` + // City, ST 12345
		`|\b\d{5}(?:-\d{4})?\b)` // bare zip
	return mustRegex("address", pat, 0.7)
})

// NewEmail recognizes e-mail addresses.
func NewEmail() Recognizer { return emailRec() }

var emailRec = sync.OnceValue(func() Recognizer {
	return mustRegex("email", `\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b`, 0.98)
})

// NewNumber recognizes decimal numbers.
func NewNumber() Recognizer { return numberRec() }

var numberRec = sync.OnceValue(func() Recognizer {
	return mustRegex("number", `\b\d+(?:\.\d+)?\b`, 0.5)
})

// NewISBN recognizes 10- and 13-digit ISBNs with optional hyphens.
func NewISBN() Recognizer { return isbnRec() }

var isbnRec = sync.OnceValue(func() Recognizer {
	return mustRegex("isbn", `\b(?:97[89][- ]?)?\d{1,5}[- ]?\d{1,7}[- ]?\d{1,7}[- ]?[\dXx]\b`, 0.85)
})
