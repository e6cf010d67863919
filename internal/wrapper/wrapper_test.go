package wrapper

import (
	"fmt"
	"strings"
	"testing"

	"objectrunner/internal/clean"
	"objectrunner/internal/dom"
	"objectrunner/internal/recognize"
	"objectrunner/internal/sod"
)

func concertRecs() (map[string]recognize.Recognizer, *recognize.Registry) {
	src := recognize.StaticSource{
		"Artist": {
			{Value: "Metallica", Confidence: 0.9}, {Value: "Madonna", Confidence: 0.95},
			{Value: "Muse", Confidence: 0.85}, {Value: "Coldplay", Confidence: 0.9},
		},
		"Theater": {
			{Value: "Madison Square Garden", Confidence: 0.9}, {Value: "The Town Hall", Confidence: 0.8},
			{Value: "B.B King Blues and Grill", Confidence: 0.75}, {Value: "Bowery Ballroom", Confidence: 0.85},
		},
	}
	reg := recognize.NewRegistry(src)
	recs, err := reg.ResolveAll(concertSOD())
	if err != nil {
		panic(err)
	}
	return recs, reg
}

func concertSOD() *sod.Type {
	return sod.MustParse(`tuple {
		artist: instanceOf(Artist)
		date: date
		theater: instanceOf(Theater)
	}`)
}

// site builds a realistic source: chrome + list of concert records.
func site(pages int, recordsOn func(i int) [][3]string) []*dom.Node {
	var out []*dom.Node
	for _, src := range siteHTML(pages, recordsOn) {
		out = append(out, clean.Page(src))
	}
	return out
}

// siteHTML is site's raw HTML, one string per page.
func siteHTML(pages int, recordsOn func(i int) [][3]string) []string {
	var out []string
	for i := 0; i < pages; i++ {
		var sb strings.Builder
		sb.WriteString(`<html><head><title>gigs</title></head><body>`)
		sb.WriteString(`<div id="hdr"><span>GigFinder</span></div>`)
		sb.WriteString(`<div id="main"><ul>`)
		for _, r := range recordsOn(i) {
			fmt.Fprintf(&sb, `<li><div>%s</div><div>%s</div><div><a>%s</a></div></li>`, r[0], r[1], r[2])
		}
		sb.WriteString(`</ul></div>`)
		sb.WriteString(`<div id="ftr"><span>contact us</span></div>`)
		sb.WriteString(`</body></html>`)
		out = append(out, sb.String())
	}
	return out
}

var pool = [][3]string{
	{"Metallica", "Monday May 11, 8:00pm", "Madison Square Garden"},
	{"Madonna", "Saturday May 29 7:00p", "The Town Hall"},
	{"Muse", "Friday June 19 7:00p", "B.B King Blues and Grill"},
	{"Coldplay", "Saturday August 8, 2010 8:00pm", "Bowery Ballroom"},
}

func rotating(n int) func(i int) [][3]string {
	return func(i int) [][3]string {
		var rs [][3]string
		for j := 0; j < n+i%2; j++ {
			rs = append(rs, pool[(i+j)%len(pool)])
		}
		return rs
	}
}

// extractPages concatenates ExtractPage over the pages, in page order.
func extractPages(w *Wrapper, pages []*dom.Node) []*sod.Instance {
	var out []*sod.Instance
	for _, p := range pages {
		out = append(out, w.ExtractPage(p)...)
	}
	return out
}

func TestInferAndExtract(t *testing.T) {
	recs, _ := concertRecs()
	pages := site(6, rotating(2))
	cfg := DefaultConfig()
	cfg.Sample.SampleSize = 6
	w := Infer(pages, concertSOD(), recs, nil, cfg)
	if w.Aborted {
		t.Fatalf("aborted: %s", w.AbortReason)
	}
	if len(w.Matches) == 0 {
		t.Fatal("no matches")
	}
	objs := extractPages(w, pages)
	want := 0
	for i := 0; i < 6; i++ {
		want += len(rotating(2)(i))
	}
	if len(objs) != want {
		t.Fatalf("extracted %d objects, want %d", len(objs), want)
	}
	for _, o := range objs {
		if o.FieldValue("artist") == "" || o.FieldValue("theater") == "" || o.FieldValue("date") == "" {
			t.Errorf("incomplete object: %s", o)
		}
	}
}

func TestInferAbortsOnIrrelevantSource(t *testing.T) {
	recs, _ := concertRecs()
	var pages []*dom.Node
	for i := 0; i < 5; i++ {
		pages = append(pages, clean.Page(`<html><body><div>about</div><div>terms</div></body></html>`))
	}
	cfg := DefaultConfig()
	cfg.Sample.SampleSize = 4
	w := Infer(pages, concertSOD(), recs, nil, cfg)
	if !w.Aborted {
		t.Errorf("irrelevant source not aborted: %s", w.Describe())
	}
	if w.ExtractPage(pages[0]) != nil {
		t.Error("aborted wrapper extracted objects")
	}
}

// TestSmallCorpusSampleClamp pins the sample-size clamp on tiny corpora:
// the floor of 4 the mid-size clamp applies must never push the
// effective sample size above the page pool itself (it used to ask
// Algorithm 1 for a 4-page sample out of a 2- or 3-page corpus).
func TestSmallCorpusSampleClamp(t *testing.T) {
	recs, _ := concertRecs()
	for _, pages := range []int{2, 3, 5} {
		ps := site(pages, rotating(2))
		w := Infer(ps, concertSOD(), recs, nil, DefaultConfig())
		if w.Report.SampleSize > pages {
			t.Errorf("pages=%d: effective sample %d exceeds the page pool", pages, w.Report.SampleSize)
		}
		if w.Aborted {
			t.Errorf("pages=%d: inference aborted on a tiny but clean corpus: %s", pages, w.AbortReason)
			continue
		}
		if objs := extractPages(w, ps); len(objs) == 0 {
			t.Errorf("pages=%d: no objects extracted", pages)
		}
	}
}

func TestInferNoPages(t *testing.T) {
	recs, _ := concertRecs()
	w := Infer(nil, concertSOD(), recs, nil, DefaultConfig())
	if !w.Aborted {
		t.Error("no-pages source not aborted")
	}
}

func TestWrapperScore(t *testing.T) {
	w := &Wrapper{Conflicts: 0}
	if w.Score() != 1 {
		t.Errorf("score = %v", w.Score())
	}
	w.Conflicts = 3
	if w.Score() != 0.25 {
		t.Errorf("score = %v", w.Score())
	}
}

func TestRandomSampleMode(t *testing.T) {
	recs, _ := concertRecs()
	pages := site(8, rotating(2))
	cfg := DefaultConfig()
	cfg.Sample.SampleSize = 5
	cfg.RandomSample = true
	cfg.RandomSeed = 17
	w := Infer(pages, concertSOD(), recs, nil, cfg)
	// All pages are rich here, so random sampling also succeeds.
	if w.Aborted {
		t.Fatalf("aborted: %s", w.AbortReason)
	}
	if len(extractPages(w, pages)) == 0 {
		t.Error("random-sample wrapper extracted nothing")
	}
}

func TestExtractOnUnseenPages(t *testing.T) {
	recs, _ := concertRecs()
	train := site(5, rotating(2))
	cfg := DefaultConfig()
	cfg.Sample.SampleSize = 5
	w := Infer(train, concertSOD(), recs, nil, cfg)
	if w.Aborted {
		t.Fatalf("aborted: %s", w.AbortReason)
	}
	unseen := site(1, func(int) [][3]string {
		return [][3]string{
			{"The Strokes", "Friday July 2, 9:00pm", "Terminal 5"},
			{"Arcade Fire", "Sunday July 4, 7:30pm", "Radio City"},
			{"Daft Punk", "Monday July 5, 10:00pm", "The Garage"},
		}
	})
	objs := w.ExtractPage(unseen[0])
	if len(objs) != 3 {
		t.Fatalf("extracted %d from unseen page, want 3", len(objs))
	}
	if objs[2].FieldValue("theater") != "The Garage" {
		t.Errorf("theater = %q", objs[2].FieldValue("theater"))
	}
}

func TestEnrichDictionaries(t *testing.T) {
	recs, reg := concertRecs()
	pages := site(5, rotating(2))
	cfg := DefaultConfig()
	cfg.Sample.SampleSize = 5
	w := Infer(pages, concertSOD(), recs, nil, cfg)
	if w.Aborted {
		t.Fatalf("aborted: %s", w.AbortReason)
	}
	unseen := site(1, func(int) [][3]string {
		return [][3]string{{"The Strokes", "Friday July 2, 9:00pm", "Terminal 5"}}
	})
	objs := w.ExtractPage(unseen[0])
	if len(objs) == 0 {
		t.Fatal("nothing extracted")
	}
	dict, _ := reg.Dictionary(sod.RecognizerRef{Kind: "instanceOf", Arg: "Artist"})
	before := dict.Len()
	added := EnrichDictionariesObserved(reg, concertSOD(), objs, w.Score(), nil)
	if added == 0 {
		t.Fatal("no entries added")
	}
	if dict.Len() <= before {
		t.Error("artist dictionary did not grow")
	}
	if conf, ok := dict.Contains("The Strokes"); !ok || conf <= 0 {
		t.Errorf("The Strokes not enriched (conf=%v ok=%v)", conf, ok)
	}
	// Enrichment is idempotent for known values.
	if again := EnrichDictionariesObserved(reg, concertSOD(), objs, w.Score(), nil); again != 0 {
		t.Errorf("re-enrichment added %d entries", again)
	}
}

func TestDescribe(t *testing.T) {
	w := &Wrapper{Aborted: true, AbortReason: "x"}
	if !strings.Contains(w.Describe(), "aborted") {
		t.Error("describe of aborted wrapper")
	}
	w = &Wrapper{Matches: nil, Support: 3}
	if !strings.Contains(w.Describe(), "support=3") {
		t.Errorf("describe = %s", w.Describe())
	}
}

func TestSupportVariationImprovesNoisySource(t *testing.T) {
	// A source with 2 noisy pages (extra junk rows) among 6 good ones:
	// at support 3 the junk may enter the template; the variation loop
	// should still land on a working wrapper.
	recs, _ := concertRecs()
	pages := site(6, func(i int) [][3]string {
		rs := rotating(2)(i)
		return rs
	})
	// Corrupt two pages with an extra block.
	for i := 0; i < 2; i++ {
		extra := clean.Page(`<html><body><div id="main"><ul><li><div>junk</div></li></ul></div></body></html>`)
		_ = extra
		_ = i
	}
	cfg := DefaultConfig()
	cfg.Sample.SampleSize = 6
	w := Infer(pages, concertSOD(), recs, nil, cfg)
	if w.Aborted {
		t.Fatalf("aborted: %s", w.AbortReason)
	}
	if w.Support < cfg.SupportMin || w.Support > cfg.SupportMax {
		t.Errorf("support = %d outside [%d,%d]", w.Support, cfg.SupportMin, cfg.SupportMax)
	}
}
