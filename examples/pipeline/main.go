// Pipeline: the full ObjectRunner architecture (paper Fig. 1) on the
// synthetic benchmark — rank candidate sources for an SOD, wrap the best
// ones, merge and de-duplicate their objects, and run phase-two queries
// over the harvested collection.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"objectrunner"
	"objectrunner/internal/sitegen"
)

func main() {
	// The benchmark stands in for the structured Web: 9 concert sources
	// plus their knowledge base (the paper simulates source discovery
	// with Mechanical Turk; sitegen simulates both).
	cfg := sitegen.DefaultConfig()
	cfg.PagesPerSource = 15
	bench, err := sitegen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var dd *sitegen.DomainData
	for _, d := range bench.Domains {
		if d.Spec.Name == "concerts" {
			dd = d
		}
	}

	ex, err := objectrunner.New(dd.Spec.SODText,
		objectrunner.WithKnowledgeBase(bench.KB),
		objectrunner.WithCorpus(bench.Corpus, 0.05),
	)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Rank the candidate sources for this SOD (paper §VI).
	var names []string
	var sources [][]string
	for _, src := range dd.Sources {
		names = append(names, src.Spec.Name)
		sources = append(sources, src.HTML)
	}
	ranks := ex.RankSources(sources)
	fmt.Println("source ranking for the concert SOD:")
	for i, r := range ranks {
		if i >= 5 {
			break
		}
		fmt.Printf("  %d. %-26s score %.3f\n", i+1, names[r.Index], r.Score)
	}

	// 2. Wrap the top sources and extract.
	var perSource [][]*objectrunner.Object
	wrapped := 0
	for _, r := range ranks {
		if wrapped == 4 {
			break
		}
		w, err := ex.WrapContext(context.Background(), sources[r.Index])
		if err != nil {
			fmt.Printf("  %-26s discarded (%v)\n", names[r.Index], err)
			continue
		}
		perPage, err := w.ExtractStreamBatchContext(context.Background(), sources[r.Index])
		if err != nil {
			fmt.Printf("  %-26s extraction failed (%v)\n", names[r.Index], err)
			continue
		}
		var objs []*objectrunner.Object
		for _, pageObjs := range perPage {
			objs = append(objs, pageObjs...)
		}
		fmt.Printf("  %-26s wrapper %s -> %d objects\n", names[r.Index], w.Describe(), len(objs))
		perSource = append(perSource, objs)
		wrapped++
	}

	// 3. Merge across sources; the Web's redundancy means duplicates.
	merged, dropped := objectrunner.MergeSources(perSource)
	fmt.Printf("merged: %d objects (%d cross-source duplicates dropped)\n", len(merged), dropped)

	// 4. Phase-two querying over the harvested collection.
	weekend := objectrunner.Over(merged).
		Where(objectrunner.Or(
			objectrunner.FieldContains("date", "Saturday"),
			objectrunner.FieldContains("date", "Sunday"),
		)).
		OrderBy("artist").
		Limit(5)
	fmt.Printf("weekend concerts (%d total, first 5):\n", weekend.Count())
	for _, row := range weekend.Project("artist", "theater", "date") {
		fmt.Printf("  %-24s at %-24s %s\n",
			strings.Join(row["artist"], ", "),
			strings.Join(row["theater"], ", "),
			strings.Join(row["date"], ", "))
	}
}
