package annotate

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"objectrunner/internal/clean"
	"objectrunner/internal/dom"
	"objectrunner/internal/recognize"
	"objectrunner/internal/sod"
)

// concertRecs builds recognizers for the running example.
func concertRecs() map[string]recognize.Recognizer {
	artists := recognize.NewDictionary("instanceOf(Artist)")
	artists.AddAll([]recognize.Entry{
		{Value: "Metallica", Confidence: 0.9}, {Value: "Madonna", Confidence: 0.95}, {Value: "Muse", Confidence: 0.85}, {Value: "Coldplay", Confidence: 0.9},
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

func concertSOD() *sod.Type {
	return sod.MustParse(`tuple {
		artist: instanceOf(Artist)
		date: date
		location: tuple { theater: instanceOf(Theater), address: address ? }
	}`)
}

// paperPage reproduces page P1 of the paper's running example (Fig. 3).
func paperPage(artist, date, theater, street, zip string) string {
	return fmt.Sprintf(`<html><body><li>
		<div>%s</div>
		<div>%s</div>
		<div>
			<span><a>%s</a></span>
			<span>%s</span>
			<span>New York City</span>
			<span>New York</span>
			<span>%s</span>
		</div>
	</li></body></html>`, artist, date, theater, street, zip)
}

func TestAnnotatePageRunningExample(t *testing.T) {
	page := clean.Page(paperPage("Metallica", "Monday May 11, 8:00pm", "Madison Square Garden", "237 West 42nd street", "10036"))
	pa := AnnotatePage(page, concertRecs())
	divs := page.Find("div")
	if len(divs) != 3 {
		t.Fatalf("page has %d divs", len(divs))
	}
	if got := pa.Types(divs[0]); len(got) != 1 || got[0] != "artist" {
		t.Errorf("div1 types = %v, want [artist]", got)
	}
	if got := pa.Types(divs[1]); len(got) != 1 || got[0] != "date" {
		t.Errorf("div2 types = %v, want [date]", got)
	}
	// div3's spans carry mixed annotations (theater, address), so div3
	// itself must stay unannotated — but the spans are annotated.
	if got := pa.Types(divs[2]); len(got) != 0 {
		t.Errorf("div3 types = %v, want none (mixed children)", got)
	}
	spans := divs[2].Find("span")
	// span1 must carry theater (propagated from the <a> linear path); it
	// may also carry address noise ("Madison Square" looks like a street),
	// which the pipeline is designed to tolerate.
	if got := strings.Join(pa.Types(spans[0]), ","); !strings.Contains(got, "theater") {
		t.Errorf("span1 types = %v, want theater among them", got)
	}
	if got := strings.Join(pa.Types(spans[1]), ","); got != "address" {
		t.Errorf("span2 types = %v, want address", got)
	}
	if got := strings.Join(pa.Types(spans[4]), ","); got != "address" {
		t.Errorf("zip span types = %v, want address", got)
	}
}

func TestAnnotationPropagationLinearPath(t *testing.T) {
	page := clean.Page(`<body><div><span><a>Metallica</a></span></div></body>`)
	pa := AnnotatePage(page, concertRecs())
	// a -> span (single child) -> div (single child): all annotated.
	for _, tag := range []string{"a", "span", "div"} {
		n := page.FindOne(tag)
		if got := pa.Types(n); len(got) != 1 || got[0] != "artist" {
			t.Errorf("%s types = %v, want [artist]", tag, got)
		}
	}
}

func TestAnnotationPropagationUniformChildren(t *testing.T) {
	page := clean.Page(`<body><ul><li>Metallica</li><li>Muse</li><li>Madonna</li></ul></body>`)
	pa := AnnotatePage(page, concertRecs())
	ul := page.FindOne("ul")
	if got := pa.Types(ul); len(got) != 1 || got[0] != "artist" {
		t.Errorf("ul types = %v, want [artist] (uniform children)", got)
	}
}

func TestAnnotationNoPropagationMixedChildren(t *testing.T) {
	page := clean.Page(`<body><div><span>Metallica</span><span>May 29, 2010</span></div></body>`)
	pa := AnnotatePage(page, concertRecs())
	div := page.FindOne("div")
	if got := pa.Types(div); len(got) != 0 {
		t.Errorf("div with mixed children got types %v", got)
	}
}

func TestWholeVsPartialMatch(t *testing.T) {
	page := clean.Page(`<body><div>Metallica</div><div>see Metallica live</div></body>`)
	pa := AnnotatePage(page, concertRecs())
	divs := page.Find("div")
	whole := pa.Anns[divs[0]]
	if len(whole) != 1 || !whole[0].Whole {
		t.Errorf("first div ann = %+v, want whole", whole)
	}
	partial := pa.Anns[divs[1]]
	if len(partial) != 1 || partial[0].Whole {
		t.Errorf("second div ann = %+v, want partial", partial)
	}
}

func TestMultipleAnnotationsPerNode(t *testing.T) {
	// "New York" is both a city fragment (address) and could be in the
	// artist dictionary: the paper allows multiple annotations per node.
	artists := recognize.NewDictionary("instanceOf(Artist)")
	artists.Add("New York", 0.4)
	recs := map[string]recognize.Recognizer{
		"artist":  artists,
		"address": recognize.NewAddress(),
	}
	page := clean.Page(`<body><div>New York, NY 10019</div></body>`)
	pa := AnnotatePage(page, recs)
	div := page.FindOne("div")
	if got := pa.Types(div); len(got) < 2 {
		t.Errorf("div types = %v, want both artist and address", got)
	}
}

func TestCountHelpers(t *testing.T) {
	page := clean.Page(`<body><div>Metallica</div><div>Muse</div><div>May 29, 2010</div></body>`)
	pa := AnnotatePage(page, concertRecs())
	if got := pa.CountType("artist"); got < 2 {
		t.Errorf("CountType(artist) = %d, want >= 2", got)
	}
	if pa.Count() < 3 {
		t.Errorf("Count = %d", pa.Count())
	}
}

type fixedTF map[string]float64

func (f fixedTF) TermFrequency(s string) float64 {
	if v, ok := f[recognize.NormalizePhrase(s)]; ok {
		return v
	}
	return 1
}

func TestTypeSelectivity(t *testing.T) {
	rare := recognize.NewDictionary("x")
	rare.AddAll([]recognize.Entry{{Value: "Unique Band", Confidence: 0.9}, {Value: "Odd Duo", Confidence: 0.9}})
	common := recognize.NewDictionary("y")
	common.AddAll([]recognize.Entry{{Value: "New York", Confidence: 0.9}, {Value: "Love", Confidence: 0.9}})
	tf := fixedTF{"new york": 1000, "love": 500}
	if rs, cs := TypeSelectivity(rare, tf), TypeSelectivity(common, tf); rs <= cs {
		t.Errorf("rare selectivity %v should exceed common %v", rs, cs)
	}
	if got := TypeSelectivity(nil, tf); got != 0 {
		t.Errorf("nil dict selectivity = %v", got)
	}
}

func TestPageScoreAndMinScore(t *testing.T) {
	page := clean.Page(`<body><div>Metallica</div><div>Muse</div></body>`)
	pa := AnnotatePage(page, concertRecs())
	tf := fixedTF{}
	s := PageScore(pa, "artist", tf)
	want := 0.9 + 0.85
	if diff := s - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("PageScore = %v, want %v", s, want)
	}
	if got := PageScore(pa, "date", tf); got != 0 {
		t.Errorf("PageScore(date) = %v", got)
	}
	if got := MinScore(pa, []string{"artist", "date"}, tf); got != 0 {
		t.Errorf("MinScore = %v, want 0 (no dates)", got)
	}
}

// sourcePages builds a synthetic source: rich pages carry concert data,
// poor pages are navigation-only.
func sourcePages(rich, poor int) []*dom.Node {
	var pages []*dom.Node
	artists := []string{"Metallica", "Madonna", "Muse", "Coldplay"}
	theaters := []string{"Madison Square Garden", "The Town Hall", "Bowery Ballroom", "B.B King Blues and Grill"}
	for i := 0; i < rich; i++ {
		var sb strings.Builder
		sb.WriteString("<html><body><ul>")
		for j := 0; j < 3; j++ {
			a := artists[(i+j)%len(artists)]
			th := theaters[(i+j)%len(theaters)]
			fmt.Fprintf(&sb, `<li><div>%s</div><div>Monday May %d, 8:00pm</div><div><span><a>%s</a></span><span>%d West 42nd street</span></div></li>`, a, j+1, th, 100+j)
		}
		sb.WriteString("</ul></body></html>")
		pages = append(pages, clean.Page(sb.String()))
	}
	for i := 0; i < poor; i++ {
		pages = append(pages, clean.Page(`<html><body><div>about us</div><div>terms of service</div></body></html>`))
	}
	return pages
}

func TestSelectSamplePrefersRichPages(t *testing.T) {
	pages := sourcePages(6, 6)
	recs := concertRecs()
	res, err := SelectSampleCtx(context.Background(), pages, concertSOD(), recs, nil, Params{SampleSize: 4, Alpha: 0.5, Shrink: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatalf("aborted: %s", res.AbortReason)
	}
	if len(res.Sample) != 4 {
		t.Fatalf("sample size = %d", len(res.Sample))
	}
	for i, pa := range res.Sample {
		if pa.CountType("artist") == 0 {
			t.Errorf("sample[%d] has no artist annotations (poor page selected)", i)
		}
	}
}

func TestSelectSampleTypeOrder(t *testing.T) {
	pages := sourcePages(3, 0)
	res, err := SelectSampleCtx(context.Background(), pages, concertSOD(), concertRecs(), nil, DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TypeOrder) != 4 {
		t.Fatalf("type order = %v", res.TypeOrder)
	}
	// Dictionary types first, predefined after.
	dictFirst := map[string]bool{res.TypeOrder[0]: true, res.TypeOrder[1]: true}
	if !dictFirst["artist"] || !dictFirst["theater"] {
		t.Errorf("dictionary types not first: %v", res.TypeOrder)
	}
}

func TestSelectSampleAbortsOnIrrelevantSource(t *testing.T) {
	pages := sourcePages(0, 8)
	res, err := SelectSampleCtx(context.Background(), pages, concertSOD(), concertRecs(), nil, Params{SampleSize: 4, Alpha: 0.5, Shrink: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Error("irrelevant source not aborted")
	}
	if res.AbortReason == "" {
		t.Error("abort without reason")
	}
}

func TestSelectSampleAlphaZeroDisablesAbort(t *testing.T) {
	pages := sourcePages(0, 8)
	res, err := SelectSampleCtx(context.Background(), pages, concertSOD(), concertRecs(), nil, Params{SampleSize: 4, Alpha: 0, Shrink: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Error("abort with alpha=0")
	}
}

func TestSelectRandomDeterministic(t *testing.T) {
	pages := sourcePages(10, 0)
	recs := concertRecs()
	a := SelectRandom(pages, recs, 5, 42)
	b := SelectRandom(pages, recs, 5, 42)
	if len(a.Sample) != 5 || len(b.Sample) != 5 {
		t.Fatalf("sizes = %d, %d", len(a.Sample), len(b.Sample))
	}
	for i := range a.Sample {
		if a.Sample[i].Page != b.Sample[i].Page {
			t.Error("same seed gave different samples")
			break
		}
	}
	c := SelectRandom(pages, recs, 5, 7)
	same := true
	for i := range a.Sample {
		if a.Sample[i].Page != c.Sample[i].Page {
			same = false
			break
		}
	}
	if same {
		t.Log("different seeds gave the same sample (possible but unlikely)")
	}
}

func TestSelectRandomSmallPool(t *testing.T) {
	pages := sourcePages(2, 0)
	res := SelectRandom(pages, concertRecs(), 10, 1)
	if len(res.Sample) != 2 {
		t.Errorf("sample size = %d, want 2 (pool exhausted)", len(res.Sample))
	}
}

func TestBlockCondition(t *testing.T) {
	pages := sourcePages(3, 0)
	var sample []*PageAnnotations
	for _, p := range pages {
		sample = append(sample, AnnotatePage(p, concertRecs()))
	}
	if !blockCondition(sample, 0.5) {
		t.Error("rich sample fails block condition")
	}
	if blockCondition(nil, 0.5) {
		t.Error("empty sample passes block condition")
	}
	// Unannotated pages fail.
	var empty []*PageAnnotations
	for _, p := range sourcePages(0, 3) {
		empty = append(empty, AnnotatePage(p, concertRecs()))
	}
	if blockCondition(empty, 0.5) {
		t.Error("empty annotations pass block condition")
	}
}
