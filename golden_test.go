package objectrunner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"objectrunner/internal/corpus"
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
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFingerprint), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFingerprint, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFingerprint)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got.String(), "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			w := ""
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("fingerprint line %d:\n got  %s\n want %s", i+1, line, w)
		}
	}
	if n := len(strings.Split(got.String(), "\n")); n < len(wantLines) {
		t.Errorf("fingerprint has %d lines, golden has %d", n, len(wantLines))
	}
}
