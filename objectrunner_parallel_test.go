package objectrunner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
)

// workersExtractor builds the concert extractor with an explicit worker
// count. GOMAXPROCS may be 1 on the test runner, so parallel tests force
// Workers > 1 to actually exercise goroutine interleavings.
func workersExtractor(t testing.TB, workers int) *Extractor {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = workers
	return concertExtractor(t, WithConfig(cfg))
}

// TestWrapDeterministicAcrossRunsAndWorkers pins the pipeline's
// determinism contract: ten runs at every worker count (1, 2, 4, 8 —
// the fused tokenize→intern stage partitions the sample differently at
// each) must produce byte-identical inference reports and extraction
// output. The interned token model adds two things worth pinning here:
// the wrapper-scoped symbol table must come out identical on every run
// (asserted via the serialized bytes), and a wrapper that has gone
// through Save→Load — whose occurrence syms are re-resolved against the
// restored table — must extract exactly what the in-memory wrapper does.
// The worker-local tables' Merge remap must therefore land every symbol
// on the id the sequential pass would have chosen, whatever the chunk
// boundaries.
func TestWrapDeterministicAcrossRunsAndWorkers(t *testing.T) {
	pages := concertPages()
	var wantReport, wantObjs, wantNormSaved string
	for _, workers := range []int{1, 2, 4, 8} {
		// The serialized stream embeds the worker-pool size (re-applied on
		// load), so byte-identity is pinned per worker count, across runs.
		var wantSaved string
		for run := 0; run < 10; run++ {
			ex := workersExtractor(t, workers)
			w, err := ex.Wrap(pages)
			if err != nil {
				t.Fatalf("workers=%d run=%d: %v", workers, run, err)
			}
			gotReport := w.Report()
			gotObjs := fmt.Sprint(extractAll(t, w, pages))
			var saved bytes.Buffer
			if err := w.Save(&saved); err != nil {
				t.Fatalf("workers=%d run=%d: save: %v", workers, run, err)
			}
			if wantSaved == "" {
				wantSaved = saved.String()
				loaded, err := LoadWrapper(&saved, ex)
				if err != nil {
					t.Fatalf("workers=%d: load saved wrapper: %v", workers, err)
				}
				if loadedObjs := fmt.Sprint(extractAll(t, loaded, pages)); loadedObjs != gotObjs {
					t.Fatalf("workers=%d: save→load extraction diverged\n--- in-memory ---\n%s\n--- loaded ---\n%s",
						workers, gotObjs, loadedObjs)
				}
				// The only worker-count-dependent byte in the stream is the
				// recorded pool size itself (re-applied from the extractor's
				// config on load anyway). Normalizing it and re-saving must
				// give the same bytes at every worker count — the symbol
				// table, template and matches are pinned across counts.
				w.inner.SetWorkers(1)
				var norm bytes.Buffer
				if err := w.Save(&norm); err != nil {
					t.Fatalf("workers=%d: save normalized wrapper: %v", workers, err)
				}
				w.inner.SetWorkers(workers)
				if wantNormSaved == "" {
					wantNormSaved = norm.String()
				} else if norm.String() != wantNormSaved {
					t.Fatalf("workers=%d: serialized wrapper diverged across worker counts (fused tokenize→intern merge is not deterministic)", workers)
				}
			} else if saved.String() != wantSaved {
				t.Fatalf("workers=%d run=%d: serialized wrapper (symbol table included) diverged",
					workers, run)
			}
			if wantReport == "" && wantObjs == "" {
				wantReport, wantObjs = gotReport, gotObjs
				continue
			}
			if gotReport != wantReport {
				t.Fatalf("workers=%d run=%d: report diverged\n--- want ---\n%s\n--- got ---\n%s",
					workers, run, wantReport, gotReport)
			}
			if gotObjs != wantObjs {
				t.Fatalf("workers=%d run=%d: extraction diverged\n--- want ---\n%s\n--- got ---\n%s",
					workers, run, wantObjs, gotObjs)
			}
		}
	}
}

func TestExtractBatchPreservesInputOrder(t *testing.T) {
	ex := workersExtractor(t, 4)
	w, err := ex.Wrap(concertPages())
	if err != nil {
		t.Fatal(err)
	}
	training := concertPages()
	unseen := `<html><body><li><div>The Strokes</div><div>Friday July 2, 2010 9:00pm</div><div><span><a>Terminal 5</a></span><span>610 West 56th Street</span><span>New York City</span><span>New York</span><span>10019</span></div></li></body></html>`
	cases := []struct {
		name  string
		pages []string
	}{
		{"empty input", nil},
		{"single page", training[:1]},
		{"training pages", training},
		{"unseen page", []string{unseen}},
		{"mixed with empty, garbage and unseen", []string{
			training[0],
			"",
			"<html><body><p>nothing to extract here</p></body></html>",
			unseen,
			training[2],
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := w.ExtractStreamBatchContext(context.Background(), tc.pages)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.pages) {
				t.Fatalf("len = %d, want one slot per input page (%d)", len(got), len(tc.pages))
			}
			for i, p := range tc.pages {
				seq, err := w.ExtractErr(ParsePage(p))
				if err != nil {
					t.Fatal(err)
				}
				want := fmt.Sprint(seq)
				if fmt.Sprint(got[i]) != want {
					t.Errorf("slot %d differs from sequential ExtractErr\nwant %s\ngot  %s",
						i, want, fmt.Sprint(got[i]))
				}
			}
		})
	}
}

func TestExtractBatchAbortedAndNilWrapper(t *testing.T) {
	ex := workersExtractor(t, 4)
	w, err := ex.Wrap([]string{
		"<html><body><p>about our company and its mission</p></body></html>",
		"<html><body><p>read the terms of service carefully</p></body></html>",
		"<html><body><p>open positions and press contacts</p></body></html>",
	})
	if err == nil {
		t.Fatal("irrelevant source not discarded")
	}
	pages := concertPages()
	if _, err := w.ExtractStreamBatchContext(context.Background(), pages); !errors.Is(err, ErrAborted) {
		t.Errorf("aborted wrapper batch err = %v, want ErrAborted", err)
	}
	var nilW *Wrapper
	if _, err := nilW.ExtractStreamBatchContext(context.Background(), pages); !errors.Is(err, ErrNoWrapper) {
		t.Errorf("nil wrapper batch err = %v, want ErrNoWrapper", err)
	}
}

// TestParallelRunMatchesSequential drives the one-shot Run entry point
// at both worker counts and checks the end results coincide.
func TestParallelRunMatchesSequential(t *testing.T) {
	pages := concertPages()
	seq, err := workersExtractor(t, 1).RunContext(context.Background(), pages)
	if err != nil {
		t.Fatal(err)
	}
	par, err := workersExtractor(t, 4).RunContext(context.Background(), pages)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seq) != fmt.Sprint(par) {
		t.Fatalf("parallel Run diverged\nseq %s\npar %s", fmt.Sprint(seq), fmt.Sprint(par))
	}
}

// TestWrapDeterministicAcrossFixpointWorkers pins the staged analysis
// core's new axis: the worker count of Algorithm 2's fixpoint passes
// (role re-keying, vector counting, annotation labelling) must not leak
// into a single output byte, at any pipeline worker count. Reports,
// extraction output, and the normalized serialized wrapper must be
// identical across every combination.
func TestWrapDeterministicAcrossFixpointWorkers(t *testing.T) {
	pages := concertPages()
	var wantReport, wantObjs, wantNormSaved string
	for _, pipeWorkers := range []int{1, 4} {
		for _, eqWorkers := range []int{1, 2, 4, 8} {
			cfg := DefaultConfig()
			cfg.Workers = pipeWorkers
			cfg.EQ.Workers = eqWorkers
			ex := concertExtractor(t, WithConfig(cfg))
			w, err := ex.Wrap(pages)
			if err != nil {
				t.Fatalf("workers=%d/%d: %v", pipeWorkers, eqWorkers, err)
			}
			gotReport := w.Report()
			gotObjs := fmt.Sprint(extractAll(t, w, pages))
			// The recorded pool size is the only legitimate worker-dependent
			// byte in the stream; normalize it before comparing.
			w.inner.SetWorkers(1)
			var norm bytes.Buffer
			if err := w.Save(&norm); err != nil {
				t.Fatalf("workers=%d/%d: save: %v", pipeWorkers, eqWorkers, err)
			}
			if wantReport == "" {
				wantReport, wantObjs, wantNormSaved = gotReport, gotObjs, norm.String()
				continue
			}
			if gotReport != wantReport {
				t.Errorf("workers=%d/%d: report diverged\n--- want ---\n%s\n--- got ---\n%s",
					pipeWorkers, eqWorkers, wantReport, gotReport)
			}
			if gotObjs != wantObjs {
				t.Errorf("workers=%d/%d: extraction diverged\n--- want ---\n%s\n--- got ---\n%s",
					pipeWorkers, eqWorkers, wantObjs, gotObjs)
			}
			if norm.String() != wantNormSaved {
				t.Errorf("workers=%d/%d: serialized wrapper diverged across fixpoint worker counts",
					pipeWorkers, eqWorkers)
			}
		}
	}
}

// TestAbortedWrapDeterministicAcrossFixpointWorkers drives the abort
// path (irrelevant source, no wrapper survives) across fixpoint worker
// counts: the aborted wrapper's report must come out identical.
func TestAbortedWrapDeterministicAcrossFixpointWorkers(t *testing.T) {
	irrelevant := []string{
		"<html><body><p>about our company and its mission</p></body></html>",
		"<html><body><p>read the terms of service carefully</p></body></html>",
		"<html><body><p>open positions and press contacts</p></body></html>",
	}
	var wantReport string
	for _, eqWorkers := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig()
		cfg.EQ.Workers = eqWorkers
		ex := concertExtractor(t, WithConfig(cfg))
		w, err := ex.Wrap(irrelevant)
		if err == nil {
			t.Fatalf("eq workers=%d: irrelevant source not discarded", eqWorkers)
		}
		gotReport := w.Report()
		if wantReport == "" {
			wantReport = gotReport
			continue
		}
		if gotReport != wantReport {
			t.Errorf("eq workers=%d: aborted report diverged\n--- want ---\n%s\n--- got ---\n%s",
				eqWorkers, wantReport, gotReport)
		}
	}
}

// TestWrapVariationsReuseAnalysisBase asserts the support-variation loop
// resumes from one shared analysis base instead of redoing the corpus
// stage per variation: with SupportMin=3 and SupportMax=5, at least
// SupportMax-SupportMin runs must count as base reuses, against a single
// base build.
func TestWrapVariationsReuseAnalysisBase(t *testing.T) {
	ob := NewObserver()
	ex := observedConcertExtractor(t, ob)
	if _, err := ex.Wrap(concertPages()); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if got := ob.Counter("eqclass.base_builds"); got != 1 {
		t.Errorf("base_builds = %d, want exactly 1 per wrap", got)
	}
	min := int64(cfg.SupportMax - cfg.SupportMin)
	if got := ob.Counter("eqclass.base_reuse"); got < min {
		t.Errorf("base_reuse = %d, want >= %d (one per extra support variation)", got, min)
	}
}
