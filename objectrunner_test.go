package objectrunner

import (
	"context"
	"strings"
	"testing"
)

// concertPages returns the paper's running example (Fig. 3) as raw HTML.
func concertPages() []string {
	page := func(body string) string { return "<html><body>" + body + "</body></html>" }
	return []string{
		page(`<li><div>Metallica</div><div>Monday May 11, 2010 8:00pm</div><div><span><a>Madison Square Garden</a></span><span>237 West 42nd Street</span><span>New York City</span><span>New York</span><span>10036</span></div></li>`),
		page(`<li><div>Madonna</div><div>Saturday May 29, 2010 7:00pm</div><div><span><a>The Town Hall</a></span><span>131 W 55th Street</span><span>New York City</span><span>New York</span><span>10019</span></div></li><li><div>Muse</div><div>Friday June 19, 2010 7:00pm</div><div><span><a>B.B King Blues and Grill</a></span><span>4 Penn Plaza</span><span>New York City</span><span>New York</span><span>10001</span></div></li>`),
		page(`<li><div>Coldplay</div><div>Saturday August 8, 2010 8:00pm</div><div><span><a>Bowery Ballroom</a></span><span>6 Delancey Street</span><span>New York City</span><span>New York</span><span>10002</span></div></li>`),
	}
}

func concertExtractor(t testing.TB, extra ...Option) *Extractor {
	t.Helper()
	opts := []Option{
		WithDictionary("Artist", []Entry{
			{Value: "Metallica", Confidence: 0.9}, {Value: "Madonna", Confidence: 0.95},
			{Value: "Muse", Confidence: 0.85}, {Value: "Coldplay", Confidence: 0.9},
		}),
		WithDictionary("Theater", []Entry{
			{Value: "Madison Square Garden", Confidence: 0.9}, {Value: "The Town Hall", Confidence: 0.8},
			{Value: "B.B King Blues and Grill", Confidence: 0.75}, {Value: "Bowery Ballroom", Confidence: 0.85},
		}),
	}
	opts = append(opts, extra...)
	ex, err := New(`tuple {
		artist: instanceOf(Artist)
		date: date
		location: tuple { theater: instanceOf(Theater), address: address ? }
	}`, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestRunningExampleEndToEnd(t *testing.T) {
	ex := concertExtractor(t)
	objects, err := ex.RunContext(context.Background(), concertPages())
	if err != nil {
		t.Fatal(err)
	}
	if len(objects) != 4 {
		for _, o := range objects {
			t.Logf("obj: %s", o)
		}
		t.Fatalf("extracted %d objects, want 4", len(objects))
	}
	byArtist := make(map[string]*Object)
	for _, o := range objects {
		byArtist[o.FieldValue("artist")] = o
	}
	muse := byArtist["Muse"]
	if muse == nil {
		t.Fatal("Muse concert missing")
	}
	if got := muse.FieldValue("theater"); got != "B.B King Blues and Grill" {
		t.Errorf("theater = %q", got)
	}
	if got := muse.FieldValue("address"); got != "4 Penn Plaza" {
		t.Errorf("address = %q", got)
	}
}

func TestWrapperGeneralizesToUnseenValues(t *testing.T) {
	ex := concertExtractor(t)
	w, err := ex.Wrap(concertPages())
	if err != nil {
		t.Fatal(err)
	}
	unseen := `<html><body><li><div>The Strokes</div><div>Friday July 2, 2010 9:00pm</div><div><span><a>Terminal 5</a></span><span>610 West 56th Street</span><span>New York City</span><span>New York</span><span>10019</span></div></li></body></html>`
	objs := extractAll(t, w, []string{unseen})
	if len(objs) != 1 {
		t.Fatalf("objects = %d", len(objs))
	}
	if got := objs[0].FieldValue("artist"); got != "The Strokes" {
		t.Errorf("artist = %q (dictionary coverage must not matter at extraction)", got)
	}
}

func TestIrrelevantSourceIsDiscarded(t *testing.T) {
	ex := concertExtractor(t)
	pages := []string{
		"<html><body><p>about our company and its mission</p></body></html>",
		"<html><body><p>read the terms of service carefully</p></body></html>",
		"<html><body><p>open positions and press contacts</p></body></html>",
	}
	if _, err := ex.Wrap(pages); err == nil {
		t.Fatal("irrelevant source not discarded")
	} else if !strings.Contains(err.Error(), "discarded") {
		t.Errorf("error = %v", err)
	}
}

func TestParseSODErrors(t *testing.T) {
	if _, err := ParseSOD(`tuple {}`); err == nil {
		t.Error("empty tuple accepted")
	}
	if _, err := New(`tuple { a: nosuchrecognizer }`); err == nil {
		t.Error("unknown recognizer accepted")
	}
}

func TestKnowledgeBaseGazetteer(t *testing.T) {
	k := NewKnowledgeBase()
	k.AddSubClass("Band", "Performer")
	k.AddSubClass("Artist", "Performer")
	k.AddInstance("Metallica", "Band", 0.9) // reachable via neighborhood
	k.AddInstance("Madonna", "Artist", 0.95)
	k.AddInstance("Muse", "Artist", 0.85)
	k.AddInstance("Coldplay", "Artist", 0.9)
	ex, err := New(`tuple { artist: instanceOf(Artist), date: date }`, WithKnowledgeBase(k))
	if err != nil {
		t.Fatal(err)
	}
	pages := []string{
		`<html><body><li><div>Metallica</div><div>Monday May 11, 2010 8:00pm</div></li><li><div>Madonna</div><div>Saturday May 29, 2010 7:00pm</div></li></body></html>`,
		`<html><body><li><div>Muse</div><div>Friday June 19, 2010 7:00pm</div></li></body></html>`,
		`<html><body><li><div>Coldplay</div><div>Saturday August 8, 2010 8:00pm</div></li><li><div>Madonna</div><div>Sunday May 30, 2010 6:00pm</div></li></body></html>`,
	}
	objs, err := ex.RunContext(context.Background(), pages)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 5 {
		t.Fatalf("objects = %d, want 5", len(objs))
	}
}

func TestCorpusGazetteer(t *testing.T) {
	c := NewCorpus()
	c.AddDocument("Great artists such as Metallica, Madonna and Muse toured together.")
	c.AddDocument("Coldplay is an artist with worldwide reach.")
	ex, err := New(`tuple { artist: instanceOf(Artist), date: date }`, WithCorpus(c, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	pages := []string{
		`<html><body><li><div>Metallica</div><div>Monday May 11, 2010 8:00pm</div></li></body></html>`,
		`<html><body><li><div>Muse</div><div>Friday June 19, 2010 7:00pm</div></li><li><div>Madonna</div><div>Saturday May 29, 2010 7:00pm</div></li></body></html>`,
		`<html><body><li><div>Coldplay</div><div>Saturday August 8, 2010 8:00pm</div></li></body></html>`,
	}
	objs, err := ex.RunContext(context.Background(), pages)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 4 {
		t.Fatalf("objects = %d, want 4", len(objs))
	}
}

func TestEnrichFeedbackLoop(t *testing.T) {
	ex := concertExtractor(t)
	w, err := ex.Wrap(concertPages())
	if err != nil {
		t.Fatal(err)
	}
	unseen := `<html><body><li><div>Arcade Fire</div><div>Sunday July 4, 2010 7:30pm</div><div><span><a>Radio City</a></span><span>1260 Sixth Avenue</span><span>New York City</span><span>New York</span><span>10020</span></div></li></body></html>`
	objs := extractAll(t, w, []string{unseen})
	if len(objs) != 1 {
		t.Fatalf("objects = %d", len(objs))
	}
	added := ex.Enrich(objs, w.Score())
	if added == 0 {
		t.Error("enrichment added nothing")
	}
}

func TestDeduplicateAndMerge(t *testing.T) {
	ex := concertExtractor(t)
	pages := concertPages()
	w, err := ex.Wrap(pages)
	if err != nil {
		t.Fatal(err)
	}
	objs := extractAll(t, w, pages)
	doubled := append(append([]*Object{}, objs...), objs...)
	if got := Deduplicate(doubled); len(got) != len(objs) {
		t.Errorf("dedup: %d, want %d", len(got), len(objs))
	}
	merged, dropped := MergeSources([][]*Object{objs, objs})
	if len(merged) != len(objs) || dropped != len(objs) {
		t.Errorf("merge: %d kept, %d dropped", len(merged), dropped)
	}
}

func TestBooksWithAuthorSets(t *testing.T) {
	ex, err := New(`tuple {
		title: instanceOf(BookTitle)
		price: price
		authors: set(author: instanceOf(Author))+
	}`,
		WithDictionary("BookTitle", []Entry{
			{Value: "Pride and Prejudice", Confidence: 0.9}, {Value: "Cutting for Stone", Confidence: 0.9},
			{Value: "Norse Mythology", Confidence: 0.9}, {Value: "Good Omens", Confidence: 0.9},
		}),
		WithDictionary("Author", []Entry{
			{Value: "Jane Austen", Confidence: 0.9}, {Value: "Fiona Stafford", Confidence: 0.85},
			{Value: "Abraham Verghese", Confidence: 0.9}, {Value: "Neil Gaiman", Confidence: 0.9},
			{Value: "Terry Pratchett", Confidence: 0.9},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	page := func(recs string) string { return "<html><body><ul>" + recs + "</ul></body></html>" }
	rec := func(title, authors, price string) string {
		return `<li><div>` + title + `</div><span>by ` + authors + `</span><em>` + price + `</em></li>`
	}
	pages := []string{
		page(rec("Pride and Prejudice", "Jane Austen and Fiona Stafford", "$9.99") + rec("Cutting for Stone", "Abraham Verghese", "$12.50")),
		page(rec("Norse Mythology", "Neil Gaiman", "$14.00") + rec("Good Omens", "Neil Gaiman, Terry Pratchett", "$11.25")),
		page(rec("Pride and Prejudice", "Jane Austen", "$8.75")),
	}
	objs, err := ex.RunContext(context.Background(), pages)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 5 {
		for _, o := range objs {
			t.Logf("obj: %s", o)
		}
		t.Fatalf("objects = %d, want 5", len(objs))
	}
	var omens *Object
	for _, o := range objs {
		if o.FieldValue("title") == "Good Omens" {
			omens = o
		}
	}
	if omens == nil {
		t.Fatal("Good Omens missing")
	}
	authors := omens.Field("authors")
	if authors == nil || len(authors.Children) != 2 {
		t.Fatalf("authors = %v", authors)
	}
}

func TestConfigOverride(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseSegmentation = false
	ex, err := New(`tuple { artist: instanceOf(Artist), date: date }`,
		WithDictionary("Artist", []Entry{{Value: "Metallica", Confidence: 0.9}, {Value: "Muse", Confidence: 0.9}, {Value: "Madonna", Confidence: 0.9}}),
		WithConfig(cfg),
	)
	if err != nil {
		t.Fatal(err)
	}
	pages := []string{
		`<html><body><li><div>Metallica</div><div>Monday May 11, 2010 8:00pm</div></li></body></html>`,
		`<html><body><li><div>Muse</div><div>Friday June 19, 2010 7:00pm</div></li></body></html>`,
		`<html><body><li><div>Madonna</div><div>Saturday May 29, 2010 7:00pm</div></li></body></html>`,
	}
	if _, err := ex.RunContext(context.Background(), pages); err != nil {
		t.Fatal(err)
	}
}
