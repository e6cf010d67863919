package objectrunner_test

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"objectrunner"
)

// Save/LoadWrapper round-trip a learned wrapper through any stream: the
// loaded wrapper extracts byte-identically, so inference can run once
// (in a batch job, say) and serve from anywhere.
func ExampleWrapper_Save() {
	page := func(body string) string { return "<html><body>" + body + "</body></html>" }
	pages := []string{
		page(`<li><div>Metallica</div><div>Monday May 11, 2010 8:00pm</div><div><span><a>Madison Square Garden</a></span></div></li>`),
		page(`<li><div>Madonna</div><div>Saturday May 29, 2010 7:00pm</div><div><span><a>The Town Hall</a></span></div></li>` +
			`<li><div>Muse</div><div>Friday June 19, 2010 7:00pm</div><div><span><a>B.B King Blues and Grill</a></span></div></li>`),
		page(`<li><div>Coldplay</div><div>Saturday August 8, 2010 8:00pm</div><div><span><a>Bowery Ballroom</a></span></div></li>`),
	}
	ex, err := objectrunner.New(`tuple {
		artist: instanceOf(Artist)
		date: date
		theater: instanceOf(Theater)
	}`,
		objectrunner.WithDictionary("Artist", []objectrunner.Entry{
			{Value: "Metallica", Confidence: 0.9}, {Value: "Madonna", Confidence: 0.95},
			{Value: "Muse", Confidence: 0.85}, {Value: "Coldplay", Confidence: 0.9},
		}),
		objectrunner.WithDictionary("Theater", []objectrunner.Entry{
			{Value: "Madison Square Garden", Confidence: 0.9}, {Value: "The Town Hall", Confidence: 0.8},
			{Value: "B.B King Blues and Grill", Confidence: 0.75}, {Value: "Bowery Ballroom", Confidence: 0.85},
		}))
	if err != nil {
		log.Fatal(err)
	}

	// Infer once, persist the learned state.
	w, err := ex.Wrap(pages)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		log.Fatal(err)
	}

	// Load elsewhere — the extractor re-binds its live SOD (and rules) —
	// and extract from a page the original never saw.
	loaded, err := objectrunner.LoadWrapper(&buf, ex)
	if err != nil {
		log.Fatal(err)
	}
	unseen := page(`<li><div>The Strokes</div><div>Friday July 2, 2010 9:00pm</div><div><span><a>Terminal 5</a></span></div></li>`)
	perPage, err := loaded.ExtractStreamBatchContext(context.Background(), []string{unseen})
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range perPage[0] {
		fmt.Printf("%s @ %s\n", o.FieldValue("artist"), o.FieldValue("theater"))
	}
	// Output: The Strokes @ Terminal 5
}
