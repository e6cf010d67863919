package template_test

import (
	"fmt"
	"reflect"
	"testing"

	"objectrunner/internal/clean"
	"objectrunner/internal/corpus"
	"objectrunner/internal/eqclass"
	"objectrunner/internal/recognize"
	"objectrunner/internal/segment"
	"objectrunner/internal/sitegen"
	"objectrunner/internal/symtab"
	"objectrunner/internal/template"
	"objectrunner/internal/wrapper"
)

// TestSlotMatcherMatchesReferenceOnCorpus is the matcher's differential
// test on the synthetic benchmark: for every source's wrapper, on every
// page, it locates every match node's tuples with the slot matcher and
// with the map-keyed reference, then does the same for each nested
// class inside every span found — in the span's slot the class nests in
// and across the whole span, the two ranges extraction searches — and
// requires identical spans everywhere. Inference gives every descriptor
// an ordinal; the test also requires that classes with a descriptor
// bound past the first occurrence of its signature (ordinal 2 or more)
// were among those compared.
func TestSlotMatcherMatchesReferenceOnCorpus(t *testing.T) {
	cfg := sitegen.DefaultConfig()
	cfg.PagesPerSource = 6
	b, err := sitegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var spans, ordinalSpans int
	for _, dd := range b.Domains {
		reg := recognize.NewRegistry(b.KB, corpus.Source{Corpus: b.Corpus, Threshold: 0.05})
		recs, err := reg.ResolveAll(dd.SOD)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range dd.Sources {
			w := wrapper.Infer(src.Pages, dd.SOD, recs, b.KB, wrapper.DefaultConfig())
			if w.Aborted {
				continue
			}
			// The wrapper's own numbering: a fresh table in InternDescs'
			// walk order is the table the wrapper was accepted with.
			tab := symtab.New()
			template.InternDescs(w.Template, tab)
			tab.Freeze()
			for pi, html := range src.HTML {
				region := clean.Page(html)
				if w.Report.Segmentation {
					if n := segment.FindByKey(region, w.BlockKey); n != nil {
						region = n
					}
				}
				toks := eqclass.TokenizeLookupPage(tab, region, 0)
				where := fmt.Sprintf("%s/%s page %d", dd.Spec.Name, src.Spec.Name, pi)
				var walk func(n *template.Node, from, to int)
				walk = func(n *template.Node, from, to int) {
					got := template.TupleSpans(toks, n, from, to)
					if want := template.TupleSpansRef(toks, n, from, to); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, class %d in [%d, %d): slot matcher %v, reference %v", where, n.EQ.ID, from, to, got, want)
					}
					spans += len(got)
					for _, d := range n.EQ.Descs {
						if d.Ordinal > 1 {
							ordinalSpans += len(got)
							break
						}
					}
					for _, span := range got {
						for _, c := range n.Children {
							walk(c, span[0]+1, span[len(span)-1])
							if s := c.EQ.ParentSlot; s >= 0 && s+1 < len(span) {
								walk(c, span[s]+1, span[s+1])
							}
						}
					}
				}
				for _, m := range w.Matches {
					walk(m.Node, 0, len(toks))
				}
			}
		}
	}
	t.Logf("%d spans compared, %d of classes with an ordinal above 1", spans, ordinalSpans)
	if spans == 0 || ordinalSpans == 0 {
		t.Fatalf("%d spans compared, %d of classes with an ordinal above 1: the comparison is vacuous", spans, ordinalSpans)
	}
}
