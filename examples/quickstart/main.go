// Quickstart: extract concert objects from template-based HTML pages with
// a Structured Object Description and small seed dictionaries — the
// paper's running example (Fig. 3), end to end.
package main

import (
	"context"
	"fmt"
	"log"

	"objectrunner"
)

// Three pages sharing one template, in the style of the paper's Figure 3.
var pages = []string{
	page(`<li><div>Metallica</div><div>Monday May 11, 2010 8:00pm</div>
		<div><span><a>Madison Square Garden</a></span><span>237 West 42nd Street</span>
		<span>New York City</span><span>New York</span><span>10036</span></div></li>`),
	page(`<li><div>Madonna</div><div>Saturday May 29, 2010 7:00pm</div>
		<div><span><a>The Town Hall</a></span><span>131 W 55th Street</span>
		<span>New York City</span><span>New York</span><span>10019</span></div></li>
		<li><div>Muse</div><div>Friday June 19, 2010 7:00pm</div>
		<div><span><a>B.B King Blues and Grill</a></span><span>4 Penn Plaza</span>
		<span>New York City</span><span>New York</span><span>10001</span></div></li>`),
	page(`<li><div>Coldplay</div><div>Saturday August 8, 2010 8:00pm</div>
		<div><span><a>Bowery Ballroom</a></span><span>6 Delancey Street</span>
		<span>New York City</span><span>New York</span><span>10002</span></div></li>`),
}

func page(body string) string {
	return "<html><body>" + body + "</body></html>"
}

func main() {
	// 1. Describe the target objects: a concert is an artist, a date and
	//    a location (theater plus optional address). Artist and theater
	//    are open isInstanceOf types; date and address have predefined
	//    recognizers.
	ex, err := objectrunner.New(`tuple {
		artist: instanceOf(Artist)
		date: date
		location: tuple { theater: instanceOf(Theater), address: address ? }
	}`,
		objectrunner.WithDictionary("Artist", []objectrunner.Entry{
			{Value: "Metallica", Confidence: 0.9},
			{Value: "Madonna", Confidence: 0.95},
			{Value: "Muse", Confidence: 0.85},
			{Value: "Coldplay", Confidence: 0.9},
		}),
		objectrunner.WithDictionary("Theater", []objectrunner.Entry{
			{Value: "Madison Square Garden", Confidence: 0.9},
			{Value: "The Town Hall", Confidence: 0.8},
			{Value: "B.B King Blues and Grill", Confidence: 0.75},
			{Value: "Bowery Ballroom", Confidence: 0.85},
		}),
	)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Infer the wrapper from the source's pages and extract. The
	//    context variant stops promptly if the caller cancels;
	//    errors.Is(err, objectrunner.ErrAborted) distinguishes "this
	//    source does not carry the data" from real failures.
	ctx := context.Background()
	w, err := ex.WrapContext(ctx, pages)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrapper:", w.Describe())

	perPage, err := w.ExtractStreamBatchContext(ctx, pages)
	if err != nil {
		log.Fatal(err)
	}
	i := 0
	for _, objs := range perPage {
		for _, o := range objs {
			i++
			fmt.Printf("%d. artist=%q date=%q theater=%q address=%q\n",
				i, o.FieldValue("artist"), o.FieldValue("date"),
				o.FieldValue("theater"), o.FieldValue("address"))
		}
	}

	// 3. The wrapper generalizes to unseen values: the dictionaries never
	//    saw these artists, but the template carries them out.
	unseen := page(`<li><div>The Strokes</div><div>Friday July 2, 2010 9:00pm</div>
		<div><span><a>Terminal 5</a></span><span>610 West 56th Street</span>
		<span>New York City</span><span>New York</span><span>10019</span></div></li>`)
	perPage, err = w.ExtractStreamBatchContext(ctx, []string{unseen})
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range perPage[0] {
		fmt.Printf("unseen page: artist=%q theater=%q\n", o.FieldValue("artist"), o.FieldValue("theater"))
	}
}
