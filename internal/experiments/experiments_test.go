package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"objectrunner/internal/obs"
	"objectrunner/internal/sitegen"
	"objectrunner/internal/wrapper"
)

// testEnv builds one shared small-scale environment for the package's
// tests (generation plus recognizer resolution is the expensive part).
var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		cfg := sitegen.DefaultConfig()
		cfg.PagesPerSource = 14
		envVal, envErr = NewEnv(cfg)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func domain(t *testing.T, e *Env, name string) *sitegen.DomainData {
	t.Helper()
	for _, dd := range e.B.Domains {
		if dd.Spec.Name == name {
			return dd
		}
	}
	t.Fatalf("no domain %s", name)
	return nil
}

func TestCleanSourceExtractsPerfectly(t *testing.T) {
	e := testEnv(t)
	dd := domain(t, e, "concerts")
	src, _, err := e.B.FindSource("concerts", "eventorb (list)")
	if err != nil {
		t.Fatal(err)
	}
	run := e.RunOR(dd, src, wrapper.DefaultConfig())
	if run.Aborted {
		t.Fatalf("aborted: %s", run.AbortReason)
	}
	if run.Result.Pc() < 0.95 {
		t.Errorf("clean source Pc = %.2f, want ~1", run.Result.Pc())
	}
}

func TestClasslessSourceStillExtracts(t *testing.T) {
	// The paper's central claim: annotations differentiate token roles
	// that structure alone cannot (no semantic class attributes).
	e := testEnv(t)
	dd := domain(t, e, "concerts")
	src, _, err := e.B.FindSource("concerts", "zvents (list)")
	if err != nil {
		t.Fatal(err)
	}
	or := e.RunOR(dd, src, wrapper.DefaultConfig())
	if or.Result.Pc() < 0.9 {
		t.Errorf("ObjectRunner on classless source Pc = %.2f, want >= 0.9", or.Result.Pc())
	}
	// ExAlg may or may not recover this particular source (its scoring
	// gets a golden-standard labeling oracle), but it never beats the
	// targeted extraction.
	ea := e.RunEA(dd, src)
	if ea.Result.Pc() > or.Result.Pc()+1e-9 {
		t.Errorf("ExAlg (%.2f) beat ObjectRunner (%.2f) on a classless source", ea.Result.Pc(), or.Result.Pc())
	}
}

func TestUnstructuredSourceDiscarded(t *testing.T) {
	e := testEnv(t)
	dd := domain(t, e, "albums")
	src, _, err := e.B.FindSource("albums", "emusic")
	if err != nil {
		t.Fatal(err)
	}
	run := e.RunOR(dd, src, wrapper.DefaultConfig())
	if !run.Aborted {
		t.Error("prose source was not discarded")
	}
}

func TestMergedFieldsYieldPartial(t *testing.T) {
	e := testEnv(t)
	dd := domain(t, e, "cars")
	src, _, err := e.B.FindSource("cars", "automotive")
	if err != nil {
		t.Fatal(err)
	}
	run := e.RunOR(dd, src, wrapper.DefaultConfig())
	if run.Aborted {
		t.Fatalf("merged-fields source aborted: %s", run.AbortReason)
	}
	r := run.Result
	if r.Op == 0 {
		t.Errorf("merged fields should yield partially correct objects: Oc=%d Op=%d Oi=%d", r.Oc, r.Op, r.Oi)
	}
	if r.Oc != 0 {
		t.Errorf("merged fields cannot be exactly correct: Oc=%d", r.Oc)
	}
}

func TestRoadRunnerFailsOnTooRegularLists(t *testing.T) {
	// Table III / §IV.B: constant record counts give RoadRunner no
	// cross-page variation, so the iterator is never discovered.
	e := testEnv(t)
	dd := domain(t, e, "books")
	oc := 0
	for _, src := range dd.Sources {
		run := e.RunRR(dd, src)
		oc += run.Result.Oc
	}
	total := 0
	for _, src := range dd.Sources {
		total += src.NumObjects()
	}
	if float64(oc)/float64(total) > 0.1 {
		t.Errorf("RoadRunner books Pc = %.2f, want ~0 (too-regular lists)", float64(oc)/float64(total))
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison is slow")
	}
	e := testEnv(t)
	rows := e.Table3()
	if len(rows) != 5 {
		t.Fatalf("domains = %d", len(rows))
	}
	for _, row := range rows {
		or := row.Results[OR]
		ea := row.Results[EA]
		rr := row.Results[RR]
		// At this reduced scale (10 pages/source) small-sample noise can
		// move individual domains by ~10 points; the full-scale shape is
		// recorded in EXPERIMENTS.md. Here we assert the ordering with a
		// tolerance.
		if or.Pc() < ea.Pc()-0.15 {
			t.Errorf("%s: OR Pc %.2f clearly below EA %.2f", row.Domain, or.Pc(), ea.Pc())
		}
		if or.Pc() < rr.Pc()-0.05 {
			t.Errorf("%s: OR Pc %.2f below RR %.2f", row.Domain, or.Pc(), rr.Pc())
		}
		if row.Domain == "books" || row.Domain == "publications" {
			if rr.Pc() > 0.1 {
				t.Errorf("%s: RR Pc %.2f, want ~0 on constant-count lists", row.Domain, rr.Pc())
			}
		}
	}
	// Figure 6 rates must be consistent probabilities.
	for _, p := range Figure6FromTable3(rows) {
		sum := p.Correct + p.Partial + p.Incorrect
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s/%s: classification rates sum to %.3f", p.Domain, p.Algo, sum)
		}
		if p.IncompleteSources < 0 || p.IncompleteSources > 1 {
			t.Errorf("%s/%s: incomplete-source rate %.3f", p.Domain, p.Algo, p.IncompleteSources)
		}
	}
}

func TestTable2SelectionBeatsRandomOnMixedSources(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Build a variant environment where half the pages of each source
	// are annotation-poor, so sample selection matters. Use the standard
	// benchmark domains but evaluate the concerts domain only.
	e := testEnv(t)
	rows := e.Table2()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SelPc < r.RandPc-0.05 {
			t.Errorf("%s: selected sampling Pc %.2f clearly below random %.2f", r.Domain, r.SelPc, r.RandPc)
		}
	}
}

func TestTable1Formatting(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	e := testEnv(t)
	runs := e.Table1()
	if len(runs) != 49 {
		t.Fatalf("sources = %d, want 49", len(runs))
	}
	txt := FormatTable1(runs)
	for _, want := range []string{"TABLE I", "concerts", "zvents", "discarded"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Table I output missing %q", want)
		}
	}
}

func TestSupportAblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	e := testEnv(t)
	pts := e.SupportAblation("publications")
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Pc < 0 || p.Pc > 1 {
			t.Errorf("support %d: Pc = %v", p.Support, p.Pc)
		}
	}
	txt := FormatSupportAblation("publications", pts)
	if !strings.Contains(txt, "Support") {
		t.Error("ablation formatting")
	}
}

func TestAlphaAblationAbortsMore(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	e := testEnv(t)
	pts := e.AlphaAblation("albums", []float64{0, 0.5, 1000})
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// A ridiculous threshold must abort more sources than no threshold.
	if pts[2].Aborted <= pts[0].Aborted {
		t.Errorf("alpha=1000 aborted %d, alpha=0 aborted %d", pts[2].Aborted, pts[0].Aborted)
	}
}

func TestWrappingTimesWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	e := testEnv(t)
	ts := e.WrappingTimes()
	if len(ts) == 0 {
		t.Fatal("no timings")
	}
	for _, x := range ts {
		// The paper reports 4-9s on 2008 hardware; anything pathological
		// (minutes) indicates a runaway loop.
		if x.Seconds > 60 {
			t.Errorf("%s/%s took %.1fs", x.Domain, x.Source, x.Seconds)
		}
	}
	if !strings.Contains(FormatTimings(ts), "range:") {
		t.Error("timing formatting")
	}
}

func TestFormatTable2And3(t *testing.T) {
	rows2 := []Table2Row{{Domain: "x", SelPc: 0.8, SelPp: 0.9, RandPc: 0.6, RandPp: 0.7}}
	if !strings.Contains(FormatTable2(rows2), "TABLE II") {
		t.Error("table 2 formatting")
	}
}

// Algorithm 2 reaches its fixpoint on every source of the corpus: no
// analysis run stops at the MaxIter safety bound, so raising the bound
// from 10 to 20 changes neither any source's report nor any extracted
// object. A bound of 1 does cut runs short, and the counter and the
// report say so.
func TestFixpointConvergesOnCorpus(t *testing.T) {
	e := testEnv(t)
	infer := func(dd *sitegen.DomainData, src *sitegen.Source, maxIter int, ob *obs.Observer) string {
		cfg := wrapper.DefaultConfig()
		cfg.EQ.MaxIter = maxIter
		cfg.Obs = ob
		w := wrapper.Infer(src.Pages, dd.SOD, e.regs[dd.Spec.Name], e.B.KB, cfg)
		var sb strings.Builder
		sb.WriteString(w.Report.String())
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
		return sb.String()
	}
	ob := obs.New()
	sources := 0
	for _, dd := range e.B.Domains {
		for _, src := range dd.Sources {
			sources++
			at10 := infer(dd, src, 10, ob)
			if at20 := infer(dd, src, 20, ob); at20 != at10 {
				t.Errorf("%s/%s: MaxIter 20 differs from MaxIter 10:\n%s\nvs\n%s", dd.Spec.Name, src.Spec.Name, at20, at10)
			}
			if strings.Contains(at10, "capped") {
				t.Errorf("%s/%s: a variation is marked capped:\n%s", dd.Spec.Name, src.Spec.Name, at10)
			}
		}
	}
	if sources == 0 {
		t.Fatal("empty corpus")
	}
	if n := ob.Snapshot().Counters["eqclass.fixpoint_capped"]; n != 0 {
		t.Errorf("eqclass.fixpoint_capped = %d over the corpus, want 0", n)
	}

	capped := obs.New()
	dd := domain(t, e, "concerts")
	src, _, err := e.B.FindSource("concerts", "upcoming.yahoo (list)")
	if err != nil {
		t.Fatal(err)
	}
	if report := infer(dd, src, 1, capped); !strings.Contains(report, "(capped: no fixpoint)") {
		t.Errorf("MaxIter 1 report does not mark the cut:\n%s", report)
	}
	if capped.Snapshot().Counters["eqclass.fixpoint_capped"] == 0 {
		t.Error("MaxIter 1 did not count eqclass.fixpoint_capped")
	}
}
