package eqclass_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"objectrunner/internal/annotate"
	"objectrunner/internal/corpus"
	"objectrunner/internal/eqclass"
	"objectrunner/internal/recognize"
	"objectrunner/internal/segment"
	"objectrunner/internal/sitegen"
	"objectrunner/internal/wrapper"
)

// corpusSample is one corpus source's analysis sample, built the way
// wrapper inference builds it.
type corpusSample struct {
	name  string
	pages [][]*eqclass.Occurrence
}

// corpusSamples builds the analysis sample of every source of the
// default generated corpus at the given page count: central-block
// scoping, Algorithm 1 at the wrapper's sample cap, tokenization with
// annotations. Sources whose sampling aborts have no sample.
func corpusSamples(t *testing.T, pagesPerSource int) []corpusSample {
	t.Helper()
	cfg := sitegen.DefaultConfig()
	cfg.PagesPerSource = pagesPerSource
	b, err := sitegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []corpusSample
	for _, dd := range b.Domains {
		recs, err := recognize.NewRegistry(b.KB, corpus.Source{Corpus: b.Corpus, Threshold: 0.05}).ResolveAll(dd.SOD)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range dd.Sources {
			regions, err := segment.SelectMainCtx(context.Background(), src.Pages, segment.DefaultOptions(), nil)
			if err != nil {
				t.Fatal(err)
			}
			sp := annotate.DefaultParams()
			sp.SampleSize = min(sp.SampleSize, max(3*len(regions)/5, 4))
			res, err := annotate.SelectSampleCtx(context.Background(), regions, dd.SOD, recs, b.KB, sp, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Aborted {
				continue
			}
			var pages [][]*eqclass.Occurrence
			for i, pa := range res.Sample {
				pages = append(pages, eqclass.TokenizePage(pa.Page, pa, i))
			}
			out = append(out, corpusSample{dd.Spec.Name + "/" + src.Spec.Name, pages})
		}
	}
	if len(out) == 0 {
		t.Fatal("no corpus source yields a sample")
	}
	return out
}

// On every analysis round of every corpus source, at supports 3–5 and
// EQ.Workers 1 and 4, the hierarchy-order painting equals the
// width-sorted reference painting, and both differentiation steps
// (non-conflicting and conflicting annotations) induce exactly the
// numbering of the map-keyed reference step (eqclass.CheckRound).
func TestDifferentiateMatchesReferenceWorkers(t *testing.T) {
	samples := corpusSamples(t, 8)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rounds, splits := 0, 0
			for _, s := range samples {
				p := eqclass.DefaultParams()
				p.Workers = workers
				base := eqclass.NewBase(s.pages, p, nil, nil)
				for support := 3; support <= 5; support++ {
					pp := p
					pp.Support = support
					base.Analyze(pp, func(a *eqclass.Analysis) bool {
						rounds++
						n, err := eqclass.CheckRound(a)
						if err != nil {
							t.Fatalf("%s support %d round %d: %v", s.name, support, rounds, err)
						}
						splits += n
						return true
					}, nil)
				}
			}
			if rounds == 0 || splits == 0 {
				t.Fatalf("%d rounds, %d splitting steps: the corpus no longer exercises differentiation", rounds, splits)
			}
		})
	}
}

// wrapCorpus wraps every source of the default generated corpus at 8
// pages under cfg and renders each source's report and extracted
// objects.
func wrapCorpus(t *testing.T, cfg wrapper.Config) map[string]string {
	t.Helper()
	gen := sitegen.DefaultConfig()
	gen.PagesPerSource = 8
	b, err := sitegen.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, dd := range b.Domains {
		recs, err := recognize.NewRegistry(b.KB, corpus.Source{Corpus: b.Corpus, Threshold: 0.05}).ResolveAll(dd.SOD)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range dd.Sources {
			w := wrapper.Infer(src.Pages, dd.SOD, recs, b.KB, cfg)
			var sb strings.Builder
			fmt.Fprintf(&sb, "aborted=%v %s\n", w.Aborted, w.AbortReason)
			if w.Report != nil {
				sb.WriteString(w.Report.String())
			}
			if !w.Aborted {
				per, err := w.ExtractStreamBatchContext(context.Background(), src.HTML)
				if err != nil {
					t.Fatal(err)
				}
				for pi, objs := range per {
					for _, o := range objs {
						fmt.Fprintf(&sb, "p%d %s\n", pi, o)
					}
				}
			}
			out[dd.Spec.Name+"/"+src.Spec.Name] = sb.String()
		}
	}
	return out
}

// No output depends on role ids: numbering every role assignment in
// reverse, or shuffled, gives the same report and the same objects for
// every corpus source as first-seen numbering.
func TestRenumberedRolesChangeNoOutput(t *testing.T) {
	cfg := wrapper.DefaultConfig()
	cfg.Workers = 1
	want := wrapCorpus(t, cfg)
	rng := rand.New(rand.NewSource(7))
	for name, perm := range map[string]func(n int) []int32{
		"reversed": func(n int) []int32 {
			p := make([]int32, n)
			for i := range p {
				p[i] = int32(n - 1 - i)
			}
			return p
		},
		"shuffled": func(n int) []int32 {
			p := make([]int32, n)
			for i, j := range rng.Perm(n) {
				p[i] = int32(j)
			}
			return p
		},
	} {
		calls := 0
		restore := eqclass.SetRenumber(func(_ *eqclass.Analysis, n int) []int32 {
			calls++
			return perm(n)
		})
		got := wrapCorpus(t, cfg)
		restore()
		if calls == 0 {
			t.Fatalf("%s: the hook saw no role assignment", name)
		}
		for src, w := range want {
			if got[src] != w {
				t.Errorf("%s numbering changes %s:\n%s\nvs first-seen:\n%s", name, src, got[src], w)
			}
		}
	}
}

// When MaxIter cuts the inner loop with roles still changing, the
// conflicting step runs on classes found again on the current numbering:
// on every corpus source at MaxIter 1–3, every role assignment — the
// conflicting step's included — sees classes whose role ids are the
// current roles of their separators, so every role a step freezes is a
// role of a class on the current numbering.
func TestCappedRunsFreezeCurrentRoles(t *testing.T) {
	checked, bad := 0, 0
	restore := eqclass.SetRenumber(func(a *eqclass.Analysis, _ int) []int32 {
		for _, e := range a.EQs {
			for pi, tups := range e.Tuples {
				for _, tu := range tups {
					for i, pos := range tu.Positions {
						checked++
						if a.Role(a.Pages[pi][pos]) != e.Roles[i] {
							bad++
						}
					}
				}
			}
		}
		return nil
	})
	defer restore()
	capped := 0
	for maxIter := 1; maxIter <= 3; maxIter++ {
		cfg := wrapper.DefaultConfig()
		cfg.Workers = 1
		cfg.EQ.MaxIter = maxIter
		for _, out := range wrapCorpus(t, cfg) {
			capped += strings.Count(out, "(capped: no fixpoint)")
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d class separators carry a role id that is not their current role", bad, checked)
	}
	if capped == 0 || checked == 0 {
		t.Fatalf("%d capped variations, %d separators checked: the test no longer cuts a run", capped, checked)
	}
}
