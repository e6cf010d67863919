package objectrunner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"objectrunner/internal/clean"
	"objectrunner/internal/corpus"
	"objectrunner/internal/dom"
	"objectrunner/internal/recognize"
	"objectrunner/internal/sitegen"
	"objectrunner/internal/wrapper"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/ from the current output")

const goldenFingerprint = "testdata/golden/fingerprint.txt"

// TestGoldenFingerprint pins the absolute output of the whole pipeline:
// for every source of the default generated benchmark (8 pages per
// source), the sha256 of its EXPLAIN report plus every extracted object,
// at workers 1 and 4. Both worker counts must hash to the committed line.
// An intended change of output is re-baselined with
//
//	go test -run TestGoldenFingerprint . -update
//
// and the diff of testdata/golden/fingerprint.txt names the sources
// that moved.
func TestGoldenFingerprint(t *testing.T) {
	cfg := sitegen.DefaultConfig()
	cfg.PagesPerSource = 8
	b, err := sitegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.WriteString("# sha256(EXPLAIN report + extracted objects) per source; go test -run TestGoldenFingerprint . -update\n")
	for _, dd := range b.Domains {
		reg := recognize.NewRegistry(b.KB, corpus.Source{Corpus: b.Corpus, Threshold: 0.05})
		recs, err := reg.ResolveAll(dd.SOD)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range dd.Sources {
			name := dd.Spec.Name + "/" + src.Spec.Name
			var sums []string
			for _, workers := range []int{1, 4} {
				wcfg := wrapper.DefaultConfig()
				wcfg.Workers = workers
				w := wrapper.Infer(src.Pages, dd.SOD, recs, b.KB, wcfg)
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
							fmt.Fprintf(&sb, "p%d %s\n", pi, o.String())
						}
					}
				}
				sums = append(sums, fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String()))))
			}
			if sums[0] != sums[1] {
				t.Errorf("%s: workers=1 and workers=4 outputs differ", name)
			}
			fmt.Fprintf(&got, "%s %s\n", sums[0], name)
		}
	}
	checkGolden(t, goldenFingerprint, got.Bytes())
}

const goldenClean = "testdata/golden/clean.txt"

// TestGoldenCleanTrees pins the cleaned trees themselves, which no
// extracted object has to expose: for every source of the default
// generated benchmark, junk pages included, the sha256 of a structural
// dump of clean.Page over each page — per node in document order its
// depth, type, tag, attributes in order and text. Re-baselined with the
// same -update flag as TestGoldenFingerprint.
func TestGoldenCleanTrees(t *testing.T) {
	b, err := sitegen.Generate(sitegen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.WriteString("# sha256(structural dump of clean.Page over every page) per source; go test -run TestGoldenCleanTrees . -update\n")
	for _, dd := range b.Domains {
		for _, src := range dd.Sources {
			h := sha256.New()
			for pi, html := range src.HTML {
				fmt.Fprintf(h, "page %d\n", pi)
				dumpTree(h, clean.Page(html), 0)
			}
			fmt.Fprintf(&got, "%x %s/%s\n", h.Sum(nil), dd.Spec.Name, src.Spec.Name)
		}
	}
	checkGolden(t, goldenClean, got.Bytes())
}

// dumpTree writes one line per node of the subtree rooted at n: depth,
// node type, tag or text, and the attributes in order.
func dumpTree(w io.Writer, n *dom.Node, depth int) {
	fmt.Fprintf(w, "%d %s %q", depth, n.Type, n.Data)
	for _, a := range n.Attrs {
		fmt.Fprintf(w, " %q=%q", a.Name, a.Value)
	}
	fmt.Fprintln(w)
	for _, c := range n.Children {
		dumpTree(w, c, depth+1)
	}
}

// checkGolden compares got with the committed golden file at path, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(string(got), "\n")
	for i, line := range gotLines {
		if i >= len(wantLines) || line != wantLines[i] {
			w := ""
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("%s line %d:\n got  %s\n want %s", path, i+1, line, w)
		}
	}
	if len(gotLines) < len(wantLines) {
		t.Errorf("%s: got %d lines, golden has %d", path, len(gotLines), len(wantLines))
	}
}
