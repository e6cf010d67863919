package objectrunner

import (
	"context"
	"encoding/json"
	"testing"

	"objectrunner/internal/clean"
	"objectrunner/internal/corpus"
	"objectrunner/internal/obs"
	"objectrunner/internal/recognize"
	"objectrunner/internal/sitegen"
	"objectrunner/internal/wrapper"
)

// flattenBatchJSON canonicalizes per-page extraction output for
// byte-comparison: FlattenObjects per page, JSON-encoded (map keys sort,
// so equal structures encode identically).
func flattenBatchJSON(tb testing.TB, per [][]*Object) string {
	tb.Helper()
	all := make([][]map[string]any, len(per))
	for i, objs := range per {
		all[i] = FlattenObjects(objs)
	}
	b, err := json.Marshal(all)
	if err != nil {
		tb.Fatalf("marshal flattened objects: %v", err)
	}
	return string(b)
}

// TestStreamVsTreeSitegenDomains is the streaming path's differential
// harness over the full synthetic benchmark: every domain, every source,
// several worker counts. The tree path (parse + clean + tokenize per
// page) is the reference oracle; the streaming path must flatten
// byte-identically on every page. It also proves the fused tokenizer
// carries real coverage — if every page bailed to the tree fallback the
// comparison would be vacuous. Each source's objects, all pages in one
// response, also pin the daemon's AppendExtractResponse to encoding/json.
func TestStreamVsTreeSitegenDomains(t *testing.T) {
	cfg := sitegen.DefaultConfig()
	cfg.PagesPerSource = 6
	b, err := sitegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var streamed, fellBack int64
	for _, dd := range b.Domains {
		reg := recognize.NewRegistry(b.KB, corpus.Source{Corpus: b.Corpus, Threshold: 0.05})
		recs, err := reg.ResolveAll(dd.SOD)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range dd.Sources {
			inner := wrapper.Infer(src.Pages, dd.SOD, recs, b.KB, wrapper.DefaultConfig())
			if inner.Aborted {
				continue
			}
			w := &Wrapper{inner: inner}
			tree := make([][]*Object, len(src.HTML))
			for i, p := range src.HTML {
				if tree[i], err = w.ExtractErr(ParsePage(p)); err != nil {
					t.Fatalf("%s/%s page %d tree: %v", dd.Spec.Name, src.Spec.Name, i, err)
				}
			}
			want := flattenBatchJSON(t, tree)
			var all []*Object
			for _, objs := range tree {
				all = append(all, objs...)
			}
			checkAppendExtractResponse(t, dd.Spec.Name+"/"+src.Spec.Name, len(src.HTML), all)
			// Attached after the tree pass, so the counters below see only
			// the streaming path's pages.
			ob := obs.New()
			inner.SetObserver(ob)
			for _, workers := range []int{1, 2, 4, 8} {
				inner.SetWorkers(workers)
				stream, err := w.ExtractStreamBatchContext(ctx, src.HTML)
				if err != nil {
					t.Fatalf("%s/%s workers=%d stream: %v", dd.Spec.Name, src.Spec.Name, workers, err)
				}
				if got := flattenBatchJSON(t, stream); want != got {
					t.Errorf("%s/%s workers=%d: stream output diverges\ntree:   %s\nstream: %s",
						dd.Spec.Name, src.Spec.Name, workers, want, got)
				}
			}
			fb := ob.Counter("extract.stream_fallback")
			fellBack += fb
			streamed += ob.Counter("extract.pages") - fb
		}
	}
	if streamed == 0 {
		t.Fatalf("every page fell back to the tree path (%d fallbacks): differential coverage is vacuous", fellBack)
	}
	t.Logf("streamed %d pages, tree fallback on %d", streamed, fellBack)
}

// streamEdgePages are edge pages for the streaming serve path —
// entity-heavy text, kept raw-text tags, pages with nothing to extract —
// relative to the paper's running example.
var streamEdgePages = []struct {
	name string
	src  string
}{
	{"unseen_record", `<html><body><li><div>The Strokes</div><div>Friday July 2, 2010 9:00pm</div><div><span><a>Terminal 5</a></span><span>610 West 56th Street</span><span>New York City</span><span>New York</span><span>10019</span></div></li></body></html>`},
	{"entity_heavy", `<html><body><li><div>Simon &amp; Garfunkel</div><div>Monday May 11, 2010 8:00pm</div><div><span><a>Madison Square Garden</a></span><span>237 West 42nd Street &#8212; Floor 2</span><span>New York City</span><span>New York</span><span>10036</span></div></li></body></html>`},
	{"raw_text_tag", `<html><head><title>Gigs &amp; Shows</title><script>var x = "<li><div>Fake</div></li>";</script></head><body><li><div>Metallica</div><div>Monday May 11, 2010 8:00pm</div><div><span><a>Madison Square Garden</a></span><span>237 West 42nd Street</span><span>New York City</span><span>New York</span><span>10036</span></div></li></body></html>`},
	{"empty_page", ``},
	{"no_records", `<html><body><p>no concerts this week</p></body></html>`},
	{"missing_html_body", `<li><div>Muse</div><div>Friday June 19, 2010 7:00pm</div><div><span><a>B.B King Blues and Grill</a></span><span>4 Penn Plaza</span><span>New York City</span><span>New York</span><span>10001</span></div></li>`},
	{"multi_record_messy", `<HTML><BODY><ul><li><div>Madonna</div><div>Saturday May 29, 2010 7:00pm</div><div><span><a>The Town Hall</a></span><span>131 W 55th Street</span><span>New York City</span><span>New York</span><span>10019</span></div><li><div>Coldplay</div><div>Saturday August 8, 2010 8:00pm</div><div><span><a>Bowery Ballroom</a></span><span>6 Delancey Street</span><span>New York City</span><span>New York</span><span>10002</span></div></ul></BODY></HTML>`},
}

// TestStreamVsTreeExtract drives the streaming serve path through the
// edge pages against the tree oracle, wrapper-inferred from the paper's
// running example. Runs under -race -count=2 in make check.
func TestStreamVsTreeExtract(t *testing.T) {
	ex := concertExtractor(t)
	w, err := ex.Wrap(concertPages())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range streamEdgePages {
		t.Run(tc.name, func(t *testing.T) {
			tree, err := w.ExtractErr(ParsePage(tc.src))
			if err != nil {
				t.Fatal(err)
			}
			stream, err := w.ExtractStreamBatchContext(context.Background(), []string{tc.src})
			if err != nil {
				t.Fatal(err)
			}
			want := flattenBatchJSON(t, [][]*Object{tree})
			got := flattenBatchJSON(t, stream)
			if want != got {
				t.Errorf("stream output diverges\ntree:   %s\nstream: %s", want, got)
			}
		})
	}
}

// TestServeExtractStreamParity proves that the full Service facade,
// which serves from the streaming path, answers exactly what the tree
// path extracts page by page with the same cached wrapper, including on
// the cache-warming first call.
func TestServeExtractStreamParity(t *testing.T) {
	ctx := context.Background()
	pages := concertPages()
	svc := NewService(concertExtractor(t), StoreConfig{})
	for i := 0; i < 3; i++ { // first call infers, later calls hit the cache
		got, err := svc.ServeExtract(ctx, "concerts", pages)
		if err != nil {
			t.Fatal(err)
		}
		w, err := svc.Wrapper(ctx, "concerts", pages)
		if err != nil {
			t.Fatal(err)
		}
		var want []*Object
		for _, p := range pages {
			objs, err := w.ExtractErr(ParsePage(p))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, objs...)
		}
		wj, gj := flattenBatchJSON(t, [][]*Object{want}), flattenBatchJSON(t, [][]*Object{got})
		if wj != gj {
			t.Fatalf("round %d: serve output diverges\ntree:   %s\nstream: %s", i, wj, gj)
		}
	}
}

// FuzzStreamVsTree holds the streaming pass to "bail, don't diverge" on
// any input: wrapper.ExtractStream of the running example's wrapper
// must render exactly what the tree path, ExtractPage(clean.Page(src)),
// renders. A divergence is fixed by making the stream pass bail, never
// by loosening this comparison.
func FuzzStreamVsTree(f *testing.F) {
	for _, tc := range streamEdgePages {
		f.Add(tc.src)
	}
	for _, p := range concertPages() {
		f.Add(p)
	}
	w, err := concertExtractor(f).Wrap(concertPages())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tree := w.inner.ExtractPage(clean.Page(src))
		stream := w.inner.ExtractStream(src)
		want := flattenBatchJSON(t, [][]*Object{tree})
		if got := flattenBatchJSON(t, [][]*Object{stream}); got != want {
			t.Errorf("stream output diverges\ntree:   %s\nstream: %s", want, got)
		}
	})
}
