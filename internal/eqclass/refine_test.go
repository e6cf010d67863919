package eqclass_test

import (
	"context"
	"testing"

	"objectrunner/internal/annotate"
	"objectrunner/internal/corpus"
	"objectrunner/internal/eqclass"
	"objectrunner/internal/recognize"
	"objectrunner/internal/segment"
	"objectrunner/internal/sitegen"
)

// cycledSample builds the analysis sample of concerts/upcoming.yahoo
// (list) from the default generated corpus at 20 pages, the way wrapper
// inference builds it: central-block scoping, Algorithm 1 at the
// wrapper's sample cap, tokenization with annotations. Before role
// differentiation only refined, every analysis of this sample swapped
// between two partitions (423 and 424 roles) until MaxIter cut it.
func cycledSample(t *testing.T) [][]*eqclass.Occurrence {
	t.Helper()
	cfg := sitegen.DefaultConfig()
	cfg.PagesPerSource = 20
	cfg.Domains = []string{"concerts"}
	b, err := sitegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, dd, err := b.FindSource("concerts", "upcoming.yahoo (list)")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := recognize.NewRegistry(b.KB, corpus.Source{Corpus: b.Corpus, Threshold: 0.05}).ResolveAll(dd.SOD)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := segment.SelectMainCtx(context.Background(), src.Pages, segment.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := annotate.DefaultParams()
	sp.SampleSize = min(sp.SampleSize, max(3*len(regions)/5, 4))
	res, err := annotate.SelectSampleCtx(context.Background(), regions, dd.SOD, recs, b.KB, sp, nil)
	if err != nil || res.Aborted {
		t.Fatalf("sample selection: %v %s", err, res.AbortReason)
	}
	var pages [][]*eqclass.Occurrence
	for i, pa := range res.Sample {
		pages = append(pages, eqclass.TokenizePage(pa.Page, pa, i))
	}
	return pages
}

// refines reports whether partition next refines prev: every role of
// next draws its occurrences from a single role of prev.
func refines(next, prev []int32) bool {
	from := make(map[int32]int32)
	for i, r := range next {
		if p, ok := from[r]; ok && p != prev[i] {
			return false
		}
		from[r] = prev[i]
	}
	return true
}

// Every differentiation round refines the role partition: no role of a
// round draws occurrences from two roles of the round before. The hook
// sees the partition before each positional round; the conflicting-
// annotation round falls between two hook calls or before the final
// assignment, so its refinement is checked too.
func TestDifferentiationOnlyRefines(t *testing.T) {
	pages := cycledSample(t)
	p := eqclass.DefaultParams()
	base := eqclass.NewBase(pages, p, nil, nil)
	for support := 3; support <= 5; support++ {
		pp := p
		pp.Support = support
		var prev []int32
		rounds, splits := 0, 0
		check := func(a *eqclass.Analysis) {
			var cur []int32
			for _, page := range a.Pages {
				for _, o := range page {
					cur = append(cur, int32(a.Role(o)))
				}
			}
			if prev != nil {
				if !refines(cur, prev) {
					t.Errorf("support %d, round %d: a role merges occurrences of two earlier roles", support, rounds)
				}
				if !refines(prev, cur) {
					splits++
				}
			}
			prev = cur
			rounds++
		}
		a := base.Analyze(pp, func(a *eqclass.Analysis) bool { check(a); return true }, nil)
		check(a)
		if a.Capped {
			t.Errorf("support %d: stopped at MaxIter after %d iterations", support, a.Iterations)
		}
		if splits == 0 {
			t.Errorf("support %d: no round split a role in %d rounds; the sample no longer exercises differentiation", support, rounds)
		}
	}
}
