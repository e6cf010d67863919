package recognize

import (
	"strings"
	"testing"
	"testing/quick"

	"objectrunner/internal/sod"
)

func values(ms []Match) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Value)
	}
	return out
}

func TestDateRecognizer(t *testing.T) {
	d := NewDate()
	positive := []string{
		"Saturday August 8, 2010 8:00pm",
		"Monday May 11, 8:00pm",
		"Saturday May 29 7:00p",
		"Friday June 19 7:00p",
		"May 29, 2010",
		"29 May 2010",
		"2010-05-29",
		"05/29/2010",
		"June 2011",
	}
	for _, s := range positive {
		if conf, ok := FindWhole(d, s); !ok || conf <= 0 {
			t.Errorf("date %q not recognized (matches: %v)", s, values(d.Find(s)))
		}
	}
	negative := []string{"Metallica", "Madison Square Garden", "hello world", ""}
	for _, s := range negative {
		if _, ok := FindWhole(d, s); ok {
			t.Errorf("non-date %q recognized as whole date", s)
		}
	}
}

func TestDateFindInContext(t *testing.T) {
	d := NewDate()
	ms := d.Find("The show is on Monday May 11, 8:00pm at the Garden")
	if len(ms) != 1 {
		t.Fatalf("got %d matches: %v", len(ms), values(ms))
	}
	if !strings.HasPrefix(ms[0].Value, "Monday May 11") {
		t.Errorf("match = %q", ms[0].Value)
	}
}

func TestPriceRecognizer(t *testing.T) {
	p := NewPrice()
	for _, s := range []string{"$12.99", "$1,299.00", "£7", "EUR 45", "12.99 USD"} {
		if _, ok := FindWhole(p, s); !ok {
			t.Errorf("price %q not recognized", s)
		}
	}
	for _, s := range []string{"twelve", "date", ""} {
		if _, ok := FindWhole(p, s); ok {
			t.Errorf("non-price %q recognized", s)
		}
	}
}

func TestPhoneRecognizer(t *testing.T) {
	p := NewPhone()
	for _, s := range []string{"(212) 555-0198", "212-555-0198", "+1 212 555 0198", "+33 1 42 68 53 00"} {
		if len(p.Find(s)) == 0 {
			t.Errorf("phone %q not recognized", s)
		}
	}
	if len(p.Find("May 11, 2010")) != 0 {
		t.Error("date recognized as phone")
	}
}

func TestAddressRecognizer(t *testing.T) {
	a := NewAddress()
	for _, s := range []string{
		"237 West 42nd street",
		"4 Penn Plaza",
		"Delancey St",
		"131 W 55th St",
		"New York, NY 10019",
		"10019",
	} {
		if len(a.Find(s)) == 0 {
			t.Errorf("address %q not recognized", s)
		}
	}
	if len(a.Find("Metallica")) != 0 {
		t.Error("band name recognized as address")
	}
}

func TestEmailAndISBN(t *testing.T) {
	if _, ok := FindWhole(NewEmail(), "a.b@example.com"); !ok {
		t.Error("email not recognized")
	}
	if _, ok := FindWhole(NewISBN(), "978-0-306-40615-7"); !ok {
		t.Error("isbn not recognized")
	}
}

func TestYearRecognizer(t *testing.T) {
	y := NewYear()
	if _, ok := FindWhole(y, "2010"); !ok {
		t.Error("2010 not a year")
	}
	if _, ok := FindWhole(y, "123"); ok {
		t.Error("123 recognized as year")
	}
	if _, ok := FindWhole(y, "3010"); ok {
		t.Error("3010 recognized as year")
	}
}

func TestRegexRecognizer(t *testing.T) {
	r, err := NewRegex("custom", `[A-Z]{3}-\d{4}`)
	if err != nil {
		t.Fatal(err)
	}
	ms := r.Find("codes ABC-1234 and XYZ-9999 here")
	if len(ms) != 2 {
		t.Fatalf("got %d matches", len(ms))
	}
	if ms[0].Value != "ABC-1234" || ms[0].Start != 6 {
		t.Errorf("first match = %+v", ms[0])
	}
	if _, err := NewRegex("bad", `[`); err == nil {
		t.Error("invalid pattern accepted")
	}
}

// TestRegexNeedsDigit pins which predefined recognizers skip text
// without a digit — the flag is derived from each pattern's syntax tree,
// never set by hand — and the derivation on user patterns.
func TestRegexNeedsDigit(t *testing.T) {
	predefined := map[string]Recognizer{
		"date": NewDate(), "year": NewYear(), "price": NewPrice(), "phone": NewPhone(),
		"number": NewNumber(), "isbn": NewISBN(), "address": NewAddress(), "email": NewEmail(),
	}
	want := map[string]bool{
		"date": true, "year": true, "price": true, "phone": true,
		"number": true, "isbn": true, "address": false, "email": false,
	}
	for name, r := range predefined {
		if got := r.(*RegexRecognizer).needsDigit; got != want[name] {
			t.Errorf("%s: needsDigit = %v, want %v", name, got, want[name])
		}
	}
	for pattern, want := range map[string]bool{
		`[A-Z]{3}-\d{4}`: true,
		`\d*`:            false,
		`\d?x`:           false,
		`x?\d+`:          true,
		`(\d)`:           true,
		`a|\d`:           false,
		`1|2[a-z]`:       true,
		`[\dXx]`:         false,
		`[3-5]`:          true,
		`[0-9]{0,3}`:     false,
		`[0-9]{2,}`:      true,
		`(?i)page 7`:     true,
		`.`:              false,
		`^$`:             false,
	} {
		r, err := NewRegex("user", pattern)
		if err != nil {
			t.Fatal(err)
		}
		if r.needsDigit != want {
			t.Errorf("%s: needsDigit = %v, want %v", pattern, r.needsDigit, want)
		}
	}
	// The skip changes no answer: a flagged pattern finds nothing in
	// text without a digit, and what it finds in text with one.
	r, err := NewRegex("custom", `[A-Z]{3}-\d{4}`)
	if err != nil {
		t.Fatal(err)
	}
	if ms := r.Find("ABC-DEFG no digits"); len(ms) != 0 {
		t.Errorf("matches in text without a digit: %+v", ms)
	}
	if ms := r.Find("ABC-1234"); len(ms) != 1 {
		t.Errorf("matches = %+v, want one", ms)
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"The Beatles", "the beatles"},
		{"  B.B King  Blues & Grill ", "b b king blues grill"},
		{"O'Brien's", "o'brien's"},
		{"", ""},
		{"123 Main St.", "123 main st"},
	}
	for _, c := range cases {
		if got := strings.Join(Tokenize(c.in), " "); got != c.want {
			t.Errorf("Tokenize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDictionaryBasics(t *testing.T) {
	d := NewDictionary("instanceOf(Artist)")
	d.Add("Metallica", 0.9)
	d.Add("The Beatles", 0.95)
	d.Add("B.B King Blues and Grill", 0.8)
	if d.Len() != 3 {
		t.Errorf("Len = %d", d.Len())
	}
	if conf, ok := d.Contains("metallica"); !ok || conf != 0.9 {
		t.Errorf("Contains(metallica) = %v, %v", conf, ok)
	}
	if _, ok := d.Contains("Queen"); ok {
		t.Error("unknown instance found")
	}
	// Re-adding keeps the max confidence.
	d.Add("Metallica", 0.5)
	if conf, _ := d.Contains("Metallica"); conf != 0.9 {
		t.Errorf("confidence degraded to %v", conf)
	}
	d.Add("METALLICA", 0.99)
	if conf, _ := d.Contains("Metallica"); conf != 0.99 {
		t.Errorf("confidence not raised: %v", conf)
	}
	if d.Len() != 3 {
		t.Errorf("duplicates created: Len = %d", d.Len())
	}
}

func TestDictionaryFind(t *testing.T) {
	d := NewDictionary("instanceOf(Artist)")
	d.AddAll([]Entry{
		{Value: "Metallica", Confidence: 0.9},
		{Value: "The Town Hall", Confidence: 0.8},
		{Value: "Town", Confidence: 0.3}, // shorter prefix of a longer entry
	})
	ms := d.Find("Tonight Metallica plays at The Town Hall downtown")
	if len(ms) != 2 {
		t.Fatalf("matches = %v", values(ms))
	}
	if ms[0].Value != "Metallica" {
		t.Errorf("first = %q", ms[0].Value)
	}
	// Longest match wins over the "Town" entry.
	if ms[1].Value != "The Town Hall" {
		t.Errorf("second = %q", ms[1].Value)
	}
	if ms[1].Confidence != 0.8 {
		t.Errorf("conf = %v", ms[1].Confidence)
	}
}

func TestDictionaryFindCaseAndPunct(t *testing.T) {
	d := NewDictionary("x")
	d.Add("B.B King Blues and Grill", 0.8)
	ms := d.Find("<at> b.b king blues and grill!")
	if len(ms) != 1 {
		t.Fatalf("matches = %v", values(ms))
	}
}

func TestDictionaryOffsets(t *testing.T) {
	d := NewDictionary("x")
	d.Add("Muse", 0.9)
	text := "see Muse live"
	ms := d.Find(text)
	if len(ms) != 1 {
		t.Fatal("no match")
	}
	if text[ms[0].Start:ms[0].End] != "Muse" {
		t.Errorf("span = %q", text[ms[0].Start:ms[0].End])
	}
}

func TestDictionaryEntriesSorted(t *testing.T) {
	d := NewDictionary("x")
	d.Add("b", 0.5)
	d.Add("a", 0.5)
	d.Add("c", 0.9)
	es := d.Entries()
	if es[0].Value != "c" || es[1].Value != "a" || es[2].Value != "b" {
		t.Errorf("entries = %v", es)
	}
}

func TestDictionaryEmptyValue(t *testing.T) {
	d := NewDictionary("x")
	d.Add("  ", 0.5)
	d.Add("", 0.5)
	if d.Len() != 0 {
		t.Error("empty values should be ignored")
	}
}

// Property: every match's span reproduces its value.
func TestDictionarySpanConsistency(t *testing.T) {
	d := NewDictionary("x")
	d.AddAll([]Entry{{Value: "alpha beta", Confidence: 0.9}, {Value: "gamma", Confidence: 0.8}})
	f := func(prefix, suffix string) bool {
		text := prefix + " alpha beta " + suffix + " gamma"
		for _, m := range d.Find(text) {
			if text[m.Start:m.End] != m.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRegistryPredefined(t *testing.T) {
	r := NewRegistry()
	rec, err := r.Resolve(sod.RecognizerRef{Kind: "date"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name() != "date" {
		t.Errorf("name = %s", rec.Name())
	}
	// Caching: same instance back.
	rec2, _ := r.Resolve(sod.RecognizerRef{Kind: "date"})
	if rec != rec2 {
		t.Error("recognizer not cached")
	}
}

func TestRegistryInstanceOf(t *testing.T) {
	src := StaticSource{"Artist": {{Value: "Metallica", Confidence: 0.9}, {Value: "Muse", Confidence: 0.8}}}
	r := NewRegistry(src)
	rec, err := r.Resolve(sod.RecognizerRef{Kind: "instanceOf", Arg: "Artist"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Find("Metallica live")) != 1 {
		t.Error("gazetteer not populated from source")
	}
	d, ok := r.Dictionary(sod.RecognizerRef{Kind: "instanceOf", Arg: "Artist"})
	if !ok || d.Len() != 2 {
		t.Error("Dictionary accessor failed")
	}
}

func TestRegistryMergesSources(t *testing.T) {
	a := StaticSource{"Artist": {{Value: "Metallica", Confidence: 0.9}}}
	b := StaticSource{"Artist": {{Value: "Muse", Confidence: 0.8}}}
	r := NewRegistry(a, b)
	d, _ := r.Resolve(sod.RecognizerRef{Kind: "instanceOf", Arg: "Artist"})
	dict := d.(*Dictionary)
	if dict.Len() != 2 {
		t.Errorf("merged dict has %d entries, want 2", dict.Len())
	}
}

func TestRegistryErrors(t *testing.T) {
	r := NewRegistry()
	for _, ref := range []sod.RecognizerRef{
		{Kind: "nosuch"},
		{Kind: "regex"},           // missing pattern
		{Kind: "regex", Arg: "["}, // bad pattern
		{Kind: "instanceOf"},      // missing class
	} {
		if _, err := r.Resolve(ref); err == nil {
			t.Errorf("Resolve(%v) succeeded", ref)
		}
	}
}

func TestRegistryResolveAll(t *testing.T) {
	src := StaticSource{"Artist": {{Value: "Muse", Confidence: 0.8}}, "Theater": {{Value: "The Town Hall", Confidence: 0.7}}}
	r := NewRegistry(src)
	sodT := sod.MustParse(`tuple {
		artist: instanceOf(Artist)
		date: date
		location: tuple { theater: instanceOf(Theater), address: address ? }
	}`)
	m, err := r.ResolveAll(sodT)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"artist", "date", "theater", "address"} {
		if m[name] == nil {
			t.Errorf("no recognizer for %s", name)
		}
	}
}

func TestRegistryRegisterPredefined(t *testing.T) {
	r := NewRegistry()
	r.RegisterPredefined("color", func() Recognizer {
		d := NewDictionary("color")
		d.Add("red", 1)
		return d
	})
	rec, err := r.Resolve(sod.RecognizerRef{Kind: "color"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Find("a red car")) != 1 {
		t.Error("custom predefined recognizer not working")
	}
}

func TestNormalizePhrase(t *testing.T) {
	if NormalizePhrase("The  BEATLES!") != "the beatles" {
		t.Error("normalize failed")
	}
}

func TestFindWholePartialMatch(t *testing.T) {
	d := NewDate()
	if _, ok := FindWhole(d, "Concert on May 29, 2010 tonight"); ok {
		t.Error("partial match accepted as whole")
	}
	if _, ok := FindWhole(d, "  May 29, 2010  "); !ok {
		t.Error("whole match with surrounding space rejected")
	}
}
