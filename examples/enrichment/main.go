// Enrichment: build gazetteers on the fly from a knowledge base (with
// semantic-neighborhood lookup — the paper's Metallica-is-a-Band case)
// and from Hearst patterns over a text corpus, then close the loop by
// feeding extracted values back into the dictionaries (paper Eq. 4) so a
// second source benefits from the first.
package main

import (
	"context"
	"fmt"
	"log"

	"objectrunner"
)

func main() {
	// 1. A small ontology: some artists are only known as Bands, which
	//    the Artist query still reaches through the class neighborhood.
	kb := objectrunner.NewKnowledgeBase()
	kb.AddSubClass("Band", "Performer")
	kb.AddSubClass("Artist", "Performer")
	kb.AddInstance("Metallica", "Band", 0.9)
	kb.AddInstance("Madonna", "Artist", 0.95)

	// 2. A corpus mined with Hearst patterns contributes more instances.
	corpus := objectrunner.NewCorpus()
	corpus.AddDocument("Celebrated artists such as Muse and Coldplay headline festivals.")
	corpus.AddDocument("Muse is an artist known for live shows.")

	ex, err := objectrunner.New(`tuple { artist: instanceOf(Artist), date: date }`,
		objectrunner.WithKnowledgeBase(kb),
		objectrunner.WithCorpus(corpus, 0.01),
	)
	if err != nil {
		log.Fatal(err)
	}

	page := func(recs string) string { return "<html><body><ul>" + recs + "</ul></body></html>" }
	rec := func(artist, date string) string {
		return "<li><b>" + artist + "</b><i>" + date + "</i></li>"
	}

	// 3. Source one: its values are (mostly) known to the gazetteers.
	source1 := []string{
		page(rec("Metallica", "Monday May 11, 2010 8:00pm") + rec("Madonna", "Saturday May 29, 2010 7:00pm")),
		page(rec("Muse", "Friday June 19, 2010 7:00pm")),
		page(rec("Coldplay", "Saturday August 8, 2010 8:00pm") + rec("Metallica", "Tuesday May 12, 2010 8:00pm")),
	}
	ctx := context.Background()
	w1, err := ex.WrapContext(ctx, source1)
	if err != nil {
		log.Fatal(err)
	}
	objs1, err := extractAll(ctx, w1, source1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("source 1: %d objects, wrapper score %.2f\n", len(objs1), w1.Score())

	// Extraction discovers values the dictionaries never had (structure
	// carries them); Eq. 4 feeds them back.
	unseen := page(rec("The Strokes", "Friday July 2, 2010 9:00pm") + rec("Arcade Fire", "Sunday July 4, 2010 7:30pm"))
	discovered, err := extractAll(ctx, w1, []string{unseen})
	if err != nil {
		log.Fatal(err)
	}
	added := ex.Enrich(discovered, w1.Score())
	fmt.Printf("enrichment: %d new dictionary entries from %d discovered objects\n", added, len(discovered))

	// 4. Source two uses a different template and features the newly
	//    learned artists: the enriched dictionaries now annotate them.
	source2 := []string{
		"<html><body><table><tr><td>The Strokes</td><td>Friday July 9, 2010 9:00pm</td></tr><tr><td>Arcade Fire</td><td>Saturday July 10, 2010 8:00pm</td></tr></table></body></html>",
		"<html><body><table><tr><td>Arcade Fire</td><td>Sunday July 11, 2010 7:00pm</td></tr></table></body></html>",
		"<html><body><table><tr><td>The Strokes</td><td>Monday July 12, 2010 9:30pm</td></tr><tr><td>Madonna</td><td>Tuesday July 13, 2010 8:00pm</td></tr></table></body></html>",
	}
	w2, err := ex.WrapContext(ctx, source2)
	if err != nil {
		log.Fatal(err)
	}
	objs2, err := extractAll(ctx, w2, source2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("source 2 (template unseen, artists learned via enrichment): %d objects\n", len(objs2))

	// 5. Merge the sources, dropping cross-source duplicates.
	merged, dropped := objectrunner.MergeSources([][]*objectrunner.Object{objs1, objs2})
	fmt.Printf("merged collection: %d objects (%d duplicates dropped)\n", len(merged), dropped)
	for _, o := range merged {
		fmt.Printf("  %-14s %s\n", o.FieldValue("artist"), o.FieldValue("date"))
	}
}

// extractAll flattens a per-page batch extraction into one object slice.
func extractAll(ctx context.Context, w *objectrunner.Wrapper, pages []string) ([]*objectrunner.Object, error) {
	perPage, err := w.ExtractStreamBatchContext(ctx, pages)
	if err != nil {
		return nil, err
	}
	var out []*objectrunner.Object
	for _, objs := range perPage {
		out = append(out, objs...)
	}
	return out, nil
}
