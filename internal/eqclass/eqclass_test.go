package eqclass

import (
	"fmt"
	"strings"
	"testing"

	"objectrunner/internal/annotate"
	"objectrunner/internal/clean"
	"objectrunner/internal/recognize"
)

// fig3Pages builds the three pages of the paper's running example
// (Figure 3): template-based concert listings where each record is
// artist / date / location(theater, street, city, state, zip).
func fig3Pages() []string {
	record := func(artist, date, theater, street, zip string) string {
		return fmt.Sprintf(`<li>
			<div>%s</div>
			<div>%s</div>
			<div>
				<span><a>%s</a></span>
				<span>%s</span>
				<span>New York City</span>
				<span>New York</span>
				<span>%s</span>
			</div>
		</li>`, artist, date, theater, street, zip)
	}
	p1 := "<html><body>" + record("Metallica", "Monday May 11, 8:00pm", "Madison Square Garden", "237 West 42nd street", "10036") + "</body></html>"
	p2 := "<html><body>" +
		record("Madonna", "Saturday May 29 7:00p", "The Town Hall", "131 W 55th St", "10019") +
		record("Muse", "Friday June 19 7:00p", "B.B King Blues and Grill", "4 Penn Plaza", "10001") +
		"</body></html>"
	p3 := "<html><body>" + record("Coldplay", "Saturday August 8, 2010 8:00pm", "Bowery Ballroom", "Delancey St", "10002") + "</body></html>"
	return []string{p1, p2, p3}
}

func concertRecs() map[string]recognize.Recognizer {
	artists := recognize.NewDictionary("instanceOf(Artist)")
	artists.AddAll([]recognize.Entry{
		{Value: "Metallica", Confidence: 0.9}, {Value: "Madonna", Confidence: 0.95},
		{Value: "Muse", Confidence: 0.85}, {Value: "Coldplay", Confidence: 0.9},
	})
	theaters := recognize.NewDictionary("instanceOf(Theater)")
	theaters.AddAll([]recognize.Entry{
		{Value: "Madison Square Garden", Confidence: 0.9}, {Value: "The Town Hall", Confidence: 0.8},
		{Value: "B.B King Blues and Grill", Confidence: 0.75}, {Value: "Bowery Ballroom", Confidence: 0.85},
	})
	return map[string]recognize.Recognizer{
		"artist":  artists,
		"theater": theaters,
		"date":    recognize.NewDate(),
		"address": recognize.NewAddress(),
	}
}

// tokenizeAll parses, cleans, annotates and tokenizes the given pages.
func tokenizeAll(t *testing.T, srcs []string, recs map[string]recognize.Recognizer) [][]*Occurrence {
	t.Helper()
	var out [][]*Occurrence
	for i, src := range srcs {
		page := clean.Page(src)
		var pa *annotate.PageAnnotations
		if recs != nil {
			pa = annotate.AnnotatePage(page, recs)
		}
		out = append(out, TokenizePage(page, pa, i))
	}
	return out
}

func TestTokenizePage(t *testing.T) {
	page := clean.Page(`<body><div>Hello World</div></body>`)
	occs := TokenizePage(page, nil, 0)
	var vals []string
	for _, o := range occs {
		vals = append(vals, o.Kind.String()+":"+o.Value)
	}
	want := "tag:html tag:body tag:div word:hello word:world endtag:div endtag:body endtag:html"
	if got := strings.Join(vals, " "); got != want {
		t.Errorf("tokens = %s\nwant %s", got, want)
	}
	// Positions are sequential.
	for i, o := range occs {
		if o.Pos != i {
			t.Errorf("Pos[%d] = %d", i, o.Pos)
		}
	}
}

func TestTokenizeAnnotations(t *testing.T) {
	page := clean.Page(`<body><div>Metallica</div></body>`)
	pa := annotate.AnnotatePage(page, concertRecs())
	occs := TokenizePage(page, pa, 0)
	for _, o := range occs {
		if o.Value == "metallica" {
			if len(o.Types) != 1 || o.Types[0] != "artist" {
				t.Errorf("word types = %v", o.Types)
			}
			if o.SingleType() != "artist" {
				t.Error("SingleType failed")
			}
		}
		if o.Kind == KindStartTag && o.Value == "div" {
			if len(o.Types) != 1 || o.Types[0] != "artist" {
				t.Errorf("div types = %v", o.Types)
			}
		}
	}
}

func TestAnalyzeRunningExample(t *testing.T) {
	pages := tokenizeAll(t, fig3Pages(), concertRecs())
	a := Analyze(pages, DefaultParams(), nil)
	if len(a.EQs) == 0 {
		t.Fatal("no equivalence classes found")
	}
	// There must be a class whose vector matches the record counts
	// <1,2,1> — the <li> record class.
	var rec *EQ
	for _, e := range a.EQs {
		if fmt.Sprint(e.Vector) == "[1 2 1]" && e.K() >= 4 {
			if rec == nil || e.K() > rec.K() {
				rec = e
			}
		}
	}
	if rec == nil {
		for _, e := range a.EQs {
			t.Logf("eq: %s", e)
		}
		t.Fatal("record-level class with vector [1 2 1] not found")
	}
	// The record class must expose slots typed artist, date, theater and
	// address — the <div> roles were differentiated (paper §III.C: "we
	// can detect that the <div> tag occurrences ... have different
	// roles").
	profs := a.SlotProfilesOf(rec)
	seen := make(map[string]bool)
	for _, p := range profs {
		if d, _ := p.Dominant(); d != "" {
			seen[d] = true
		}
	}
	for _, want := range []string{"artist", "date", "theater"} {
		if !seen[want] {
			t.Errorf("no slot dominated by %q (slots: %+v)", want, summarize(profs))
		}
	}
}

func summarize(profs []SlotProfile) []string {
	var out []string
	for i, p := range profs {
		d, share := p.Dominant()
		out = append(out, fmt.Sprintf("s%d:%s(%.2f,text=%d)", i, d, share, p.TextCount))
	}
	return out
}

func TestAnalyzeDifferentiatesDivRoles(t *testing.T) {
	pages := tokenizeAll(t, fig3Pages(), concertRecs())
	a := Analyze(pages, DefaultParams(), nil)
	// Collect the roles of <div> start-tag occurrences on page 0: the
	// three divs must not share a single role.
	roles := make(map[int]bool)
	for _, o := range a.Pages[0] {
		if o.Kind == KindStartTag && o.Value == "div" {
			roles[a.Role(o)] = true
		}
	}
	if len(roles) < 3 {
		t.Errorf("div roles = %d distinct, want 3 (annotation/position differentiation)", len(roles))
	}
}

func TestAnalyzeWithoutAnnotationsStillFindsStructure(t *testing.T) {
	pages := tokenizeAll(t, fig3Pages(), nil)
	p := DefaultParams()
	p.UseAnnotations = false
	a := Analyze(pages, p, nil)
	if len(a.EQs) == 0 {
		t.Fatal("baseline found no classes")
	}
	found := false
	for _, e := range a.EQs {
		if fmt.Sprint(e.Vector) == "[1 2 1]" {
			found = true
		}
	}
	if !found {
		t.Error("record-level vector [1 2 1] not found in baseline")
	}
}

func TestTooRegularDataShielded(t *testing.T) {
	// "New York" appears in the same position in every record; with
	// annotations it must NOT become a separator (paper §II.C). The word
	// tokens of "new york city" / "new york" are annotated as address by
	// the recognizer... verify the shielding predicate directly.
	pages := tokenizeAll(t, fig3Pages(), concertRecs())
	a := Analyze(pages, DefaultParams(), nil)
	sepRoles := make(map[int]bool)
	for _, e := range a.EQs {
		for _, r := range e.Roles {
			sepRoles[r] = true
		}
	}
	for _, page := range a.Pages {
		for _, o := range page {
			if o.Kind == KindWord && (o.Value == "york") && o.Annotated() && sepRoles[a.Role(o)] {
				t.Errorf("annotated word %q became a template separator", o.Value)
			}
		}
	}
}

func TestAnalyzeSupportExcludesRareTokens(t *testing.T) {
	srcs := fig3Pages()
	pages := tokenizeAll(t, srcs, concertRecs())
	p := DefaultParams()
	p.Support = 3
	a := Analyze(pages, p, nil)
	// Words appearing on a single page (e.g. "metallica") must not be
	// separators at support 3.
	sepDescs := make(map[string]bool)
	for _, e := range a.EQs {
		for _, d := range e.Descs {
			sepDescs[d.Value] = true
		}
	}
	for _, rare := range []string{"metallica", "madonna", "coldplay"} {
		if sepDescs[rare] {
			t.Errorf("rare word %q became a separator", rare)
		}
	}
}

func TestHierarchyNesting(t *testing.T) {
	pages := tokenizeAll(t, fig3Pages(), concertRecs())
	a := Analyze(pages, DefaultParams(), nil)
	tops := a.TopEQs()
	if len(tops) == 0 {
		t.Fatal("no top-level classes")
	}
	// The page-level class (vector [1 1 1]) must be above the record
	// class (vector [1 2 1]).
	var pageEQ, recEQ *EQ
	for _, e := range a.EQs {
		switch fmt.Sprint(e.Vector) {
		case "[1 1 1]":
			if pageEQ == nil || e.coverage() > pageEQ.coverage() {
				pageEQ = e
			}
		case "[1 2 1]":
			if recEQ == nil || e.K() > recEQ.K() {
				recEQ = e
			}
		}
	}
	if pageEQ == nil || recEQ == nil {
		t.Fatalf("missing classes: page=%v rec=%v", pageEQ, recEQ)
	}
	// recEQ must have pageEQ as ancestor.
	okAncestor := false
	for cur := recEQ.Parent; cur != nil; cur = cur.Parent {
		if cur == pageEQ {
			okAncestor = true
		}
	}
	if !okAncestor && recEQ.Parent != nil {
		t.Errorf("record class parent = %v, want ancestor %v", recEQ.Parent, pageEQ)
	}
}

func TestSlotProfileDominantAndConflict(t *testing.T) {
	p := SlotProfile{Types: map[string]int{"artist": 8, "date": 2}}
	d, share := p.Dominant()
	if d != "artist" || share != 0.8 {
		t.Errorf("dominant = %s %v", d, share)
	}
	if p.Conflicting(0.7) {
		t.Error("0.8 dominance flagged conflicting at 0.7")
	}
	if !p.Conflicting(0.9) {
		t.Error("0.8 dominance not flagged at 0.9")
	}
	empty := SlotProfile{Types: map[string]int{}}
	if d, s := empty.Dominant(); d != "" || s != 0 {
		t.Error("empty profile dominant")
	}
	if empty.Conflicting(0.5) {
		t.Error("empty profile conflicting")
	}
}

func TestAnalyzeHookAbort(t *testing.T) {
	pages := tokenizeAll(t, fig3Pages(), concertRecs())
	calls := 0
	a := Analyze(pages, DefaultParams(), func(*Analysis) bool {
		calls++
		return false // abort immediately
	})
	if calls != 1 {
		t.Errorf("hook called %d times, want 1", calls)
	}
	if a == nil {
		t.Fatal("nil analysis on abort")
	}
}

func TestAnalyzeEmptyAndDegenerate(t *testing.T) {
	// No pages.
	a := Analyze(nil, DefaultParams(), nil)
	if len(a.EQs) != 0 {
		t.Error("classes from no pages")
	}
	// Empty pages.
	pages := tokenizeAll(t, []string{"<html><body></body></html>", "<html><body></body></html>", "<html><body></body></html>"}, nil)
	a = Analyze(pages, DefaultParams(), nil)
	// html/body skeleton forms one class; no slots conflicts.
	for _, e := range a.EQs {
		for _, prof := range a.SlotProfilesOf(e) {
			if prof.TextCount != 0 {
				t.Error("text in empty pages")
			}
		}
	}
}

func TestVaryingRecordCountsAcrossPages(t *testing.T) {
	// List pages with 2, 4 and 3 records: the record class vector must
	// be [2 4 3] and all record content slots typed.
	rec := func(i int) string {
		artists := []string{"Metallica", "Madonna", "Muse", "Coldplay"}
		return fmt.Sprintf(`<li><div>%s</div><div>Monday May %d, 8:00pm</div></li>`, artists[i%4], i+1)
	}
	mk := func(n int) string {
		var sb strings.Builder
		sb.WriteString("<html><body><ul>")
		for i := 0; i < n; i++ {
			sb.WriteString(rec(i))
		}
		sb.WriteString("</ul></body></html>")
		return sb.String()
	}
	pages := tokenizeAll(t, []string{mk(2), mk(4), mk(3)}, concertRecs())
	a := Analyze(pages, DefaultParams(), nil)
	var recEQ *EQ
	for _, e := range a.EQs {
		if fmt.Sprint(e.Vector) == "[2 4 3]" && e.K() >= 4 {
			if recEQ == nil || e.K() > recEQ.K() {
				recEQ = e
			}
		}
	}
	if recEQ == nil {
		for _, e := range a.EQs {
			t.Logf("eq: %s", e)
		}
		t.Fatal("record class [2 4 3] not found")
	}
	profs := a.SlotProfilesOf(recEQ)
	var artistSlot, dateSlot bool
	for _, p := range profs {
		switch d, _ := p.Dominant(); d {
		case "artist":
			artistSlot = true
		case "date":
			dateSlot = true
		}
	}
	if !artistSlot || !dateSlot {
		t.Errorf("slots = %v, want artist and date", summarize(profs))
	}
}

func TestConflictCounting(t *testing.T) {
	// Values that belong to two dictionaries at once (here both Artist
	// and Theater) produce multi-type occurrences with no majority type:
	// the conflicting-annotation phase must register conflicts.
	recs := concertRecs()
	amb := recognize.NewDictionary("instanceOf(Theater)")
	amb.AddAll([]recognize.Entry{
		{Value: "Metallica", Confidence: 0.6}, {Value: "Muse", Confidence: 0.6},
		{Value: "Coldplay", Confidence: 0.6}, {Value: "Madonna", Confidence: 0.6},
	})
	recs["theater"] = amb
	mk := func(a1 string) string {
		return fmt.Sprintf(`<html><body><ul>
			<li><div>%s</div></li><li><div>Madonna</div></li>
		</ul></body></html>`, a1)
	}
	srcs := []string{mk("Metallica"), mk("Muse"), mk("Coldplay")}
	pages := tokenizeAll(t, srcs, recs)
	a := Analyze(pages, DefaultParams(), nil)
	if a.Conflicts == 0 {
		t.Error("ambiguous multi-type values produced no conflicts")
	}
}

func TestDescString(t *testing.T) {
	for _, c := range []struct {
		d    Desc
		want string
	}{
		{Desc{Kind: KindStartTag, Value: "div", Path: "html/body/div"}, "<div>@html/body/div"},
		{Desc{Kind: KindEndTag, Value: "div", Path: "html/body/div"}, "</div>@html/body/div"},
		{Desc{Kind: KindWord, Value: "by", Path: "html/body/span"}, `"by"@html/body/span`},
	} {
		if got := c.d.String(); got != c.want {
			t.Errorf("Desc.String = %s, want %s", got, c.want)
		}
	}
}
