package wrapper

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"objectrunner/internal/sod"
	"objectrunner/internal/symtab"
	"objectrunner/internal/template"
)

// renderObjects is the objects' text form, in order, for comparison.
func renderObjects(objs []*sod.Instance) string {
	var sb strings.Builder
	for _, o := range objs {
		sb.WriteString(o.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// inferConcerts infers the concert wrapper and returns it with its
// pages' raw HTML.
func inferConcerts(t *testing.T) (*Wrapper, []string) {
	t.Helper()
	recs, _ := concertRecs()
	html := siteHTML(6, rotating(2))
	pages := site(6, rotating(2))
	cfg := DefaultConfig()
	cfg.Sample.SampleSize = 6
	w := Infer(pages, concertSOD(), recs, nil, cfg)
	if w.Aborted || len(w.Matches) == 0 {
		t.Fatalf("no usable wrapper: %s", w.Describe())
	}
	return w, html
}

// streamAll concatenates ExtractStream over the pages, in page order.
func streamAll(w *Wrapper, pages []string) []*sod.Instance {
	var out []*sod.Instance
	for _, p := range pages {
		out = append(out, w.ExtractStream(p)...)
	}
	return out
}

// TestWrapperTableFrozen: every way a wrapper gets its table (Infer
// accept, Decode, Encode's hand-built fallback) leaves it frozen.
func TestWrapperTableFrozen(t *testing.T) {
	w, _ := inferConcerts(t)
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	dw, err := Decode(strings.NewReader(saved), w.SOD)
	if err != nil {
		t.Fatal(err)
	}
	hand := &Wrapper{SOD: w.SOD, Template: w.Template, Matches: w.Matches}
	if err := hand.Encode(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	for name, ww := range map[string]*Wrapper{"inferred": w, "decoded": dw, "hand-built": hand} {
		if ww.tab == nil {
			t.Fatalf("%s wrapper has no table", name)
		}
		if !internPanics(ww.tab, "a string no descriptor holds") {
			t.Errorf("%s wrapper: interning a new string into its table did not panic", name)
		}
	}
}

func internPanics(tab *symtab.Table, s string) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	tab.Intern(s)
	return false
}

// TestRebindAfterExtractMatchesFreshLoad: a template bound again with
// InternDescs after it served pages — here into a table whose numbering
// is shifted by one symbol — extracts the same objects as a fresh load
// of the wrapper, so no slot table built from the old symbols survives
// the rebinding.
func TestRebindAfterExtractMatchesFreshLoad(t *testing.T) {
	w, pages := inferConcerts(t)
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	before := renderObjects(streamAll(w, pages))
	if before == "" {
		t.Fatal("the wrapper extracts nothing")
	}

	tab := symtab.New()
	tab.Intern("\x00shift") // every descriptor symbol moves up by one
	template.InternDescs(w.Template, tab)
	w.tab = tab.Freeze()
	rebound := renderObjects(streamAll(w, pages))

	fresh, err := Decode(strings.NewReader(saved), w.SOD)
	if err != nil {
		t.Fatal(err)
	}
	want := renderObjects(streamAll(fresh, pages))
	if want != before {
		t.Fatalf("a fresh load extracts differently from the inferred wrapper:\n%s\nvs\n%s", want, before)
	}
	if rebound != want {
		t.Fatalf("rebound wrapper extracts\n%s\nwant (fresh load)\n%s", rebound, want)
	}
}

// TestExtractStreamBatchConcurrentCallers runs the batch extract at 4
// workers on one freshly loaded wrapper from two goroutines at once.
// Under -race this checks that the frozen table's lock-free lookups and
// the shared template are safe to read from every worker.
func TestExtractStreamBatchConcurrentCallers(t *testing.T) {
	w, pages := inferConcerts(t)
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	want := renderObjects(streamAll(w, pages))
	fresh, err := Decode(&buf, w.SOD)
	if err != nil {
		t.Fatal(err)
	}
	fresh.SetWorkers(4)
	var wg sync.WaitGroup
	got := make([]string, 2)
	errs := make([]error, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				per, err := fresh.ExtractStreamBatchContext(context.Background(), pages)
				if err != nil {
					errs[g] = err
					return
				}
				var all []*sod.Instance
				for _, objs := range per {
					all = append(all, objs...)
				}
				got[g] = renderObjects(all)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		if got[g] != want {
			t.Errorf("caller %d extracted\n%s\nwant\n%s", g, got[g], want)
		}
	}
}
