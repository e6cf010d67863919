package segment_test

import (
	"testing"

	"objectrunner/internal/clean"
	"objectrunner/internal/render"
	"objectrunner/internal/segment"
	"objectrunner/internal/sitegen"
)

// BuildTree sums each block's text length from word counts instead of
// building its text; on every block of every page of the default
// generated corpus, junk pages included, the sum equals the length of
// the block's collapsed text.
func TestBlockTextLenMatchesText(t *testing.T) {
	b, err := sitegen.Generate(sitegen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for _, dd := range b.Domains {
		for _, src := range dd.Sources {
			for pi, html := range src.HTML {
				doc := clean.Page(html)
				segment.BuildTree(doc, render.ComputeDefault(doc)).Walk(func(blk *segment.Block) bool {
					blocks++
					if got, want := blk.TextLen(), len(blk.Node.Text()); got != want {
						t.Errorf("%s/%s page %d <%s> at %s: TextLen %d, len(Text()) %d",
							dd.Spec.Name, src.Spec.Name, pi, blk.Node.Data, blk.Node.Path(), got, want)
					}
					return true
				})
			}
		}
	}
	if blocks == 0 {
		t.Fatal("no blocks")
	}
}
