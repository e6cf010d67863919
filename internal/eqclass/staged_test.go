package eqclass

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"objectrunner/internal/obs"
	"objectrunner/internal/symtab"
)

// analysisFingerprint renders every observable artifact of an analysis —
// classes, hierarchy, descriptors, tuples, and the final per-occurrence
// role assignment — so two runs can be compared for exact equivalence.
func analysisFingerprint(a *Analysis) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "conflicts=%d iters=%d\n", a.Conflicts, a.Iterations)
	for _, e := range a.EQs {
		parent := 0
		if e.Parent != nil {
			parent = e.Parent.ID
		}
		fmt.Fprintf(&sb, "eq=%s parent=%d slot=%d hint=%.4f\n", e, parent, e.ParentSlot, e.OrderHint)
		for _, d := range e.Descs {
			fmt.Fprintf(&sb, "  desc %s ord=%d\n", d, d.Ordinal)
		}
		for pi, tups := range e.Tuples {
			fmt.Fprintf(&sb, "  page%d %v\n", pi, tups)
		}
		for _, prof := range a.SlotProfilesOf(e) {
			fmt.Fprintf(&sb, "  prof %+v\n", prof)
		}
	}
	for _, page := range a.Pages {
		for _, o := range page {
			fmt.Fprintf(&sb, "%d ", a.Role(o))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// The staged core's resume path must be indistinguishable from the
// monolithic analysis: one Base serving every support value (including
// one below its validation floor) must reproduce the per-support
// AnalyzeTable results exactly, at any worker count.
func TestBaseAnalyzeMatchesMonolithAcrossSupportsAndWorkers(t *testing.T) {
	pages := tokenizeAll(t, fig3Pages(), concertRecs())
	refs := make(map[int]string)
	for support := 2; support <= 5; support++ {
		p := DefaultParams()
		p.Support = support
		p.Workers = 1
		a := AnalyzeTable(copyPages(pages), p, nil, nil, nil)
		refs[support] = analysisFingerprint(a)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		p := DefaultParams()
		p.Support = 3 // the base's validation floor; support=2 resumes below it
		p.Workers = workers
		base := NewBase(copyPages(pages), p, nil, nil)
		for support := 2; support <= 5; support++ {
			pp := p
			pp.Support = support
			a := base.Analyze(pp, nil, nil)
			if got := analysisFingerprint(a); got != refs[support] {
				t.Errorf("workers=%d support=%d diverges from monolith:\n got:\n%s\nwant:\n%s",
					workers, support, got, refs[support])
			}
		}
	}
}

// copyPages duplicates a tokenized sample, so each analysis below can
// intern its own copy into a table of its own.
func copyPages(pages [][]*Occurrence) [][]*Occurrence {
	fresh := make([][]*Occurrence, len(pages))
	for i, page := range pages {
		fresh[i] = CopyPage(page)
	}
	return fresh
}

// Runs of one Base share its pages and only read them: a run leaves
// every occurrence as NewBase left it, and a run after it — the
// AnalyzeTable form included — reproduces the first run exactly.
func TestBaseRunsLeavePagesUntouched(t *testing.T) {
	pages := tokenizeAll(t, fig3Pages(), concertRecs())
	p := DefaultParams()
	p.Workers = 1
	want := analysisFingerprint(AnalyzeTable(copyPages(pages), p, nil, nil, nil))

	base := NewBase(copyPages(pages), p, nil, nil)
	before := copyPages(base.pages)
	for run := 0; run < 2; run++ {
		if got := analysisFingerprint(base.Analyze(p, nil, nil)); got != want {
			t.Errorf("run %d diverges from AnalyzeTable:\n got:\n%s\nwant:\n%s", run, got, want)
		}
		for pi, page := range base.pages {
			for i, o := range page {
				if !reflect.DeepEqual(*o, *before[pi][i]) {
					t.Fatalf("run %d wrote page %d token %d: %+v, was %+v", run, pi, i, *o, *before[pi][i])
				}
			}
		}
	}
}

// A Base serves concurrent Analyze calls: each run owns its scratch, so
// runs at supports 3–5 racing on one base must each reproduce a
// sequential run exactly. make check runs this under -race, repeatedly.
func TestBaseAnalyzeConcurrentMatchesSequential(t *testing.T) {
	pages := tokenizeAll(t, fig3Pages(), concertRecs())
	p := DefaultParams()
	p.Workers = 2
	want := make(map[int]string)
	seq := NewBase(copyPages(pages), p, nil, nil)
	for support := 3; support <= 5; support++ {
		pp := p
		pp.Support = support
		want[support] = analysisFingerprint(seq.Analyze(pp, nil, nil))
	}
	base := NewBase(copyPages(pages), p, nil, nil)
	got := make([]string, 9)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pp := p
			pp.Support = 3 + i%3
			got[i] = analysisFingerprint(base.Analyze(pp, nil, nil))
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if support := 3 + i%3; g != want[support] {
			t.Errorf("run %d (support=%d) diverges from the sequential run:\n got:\n%s\nwant:\n%s", i, support, g, want[support])
		}
	}
}

func TestBaseReuseCounter(t *testing.T) {
	pages := tokenizeAll(t, fig3Pages(), concertRecs())
	p := DefaultParams()
	p.Workers = 1
	ob := obs.New()
	base := NewBase(copyPages(pages), p, ob, nil)
	for support := 3; support <= 5; support++ {
		pp := p
		pp.Support = support
		base.Analyze(pp, nil, ob)
	}
	if got := ob.Counter("eqclass.base_builds"); got != 1 {
		t.Errorf("base_builds = %d, want 1", got)
	}
	// Three variations off one base: the second and third are reuses.
	if got := ob.Counter("eqclass.base_reuse"); got != 2 {
		t.Errorf("base_reuse = %d, want 2", got)
	}
}

// baseAnalysis runs interning + criterion-i role assignment so salvage
// paths can be unit-tested directly on the resulting role groups.
func baseAnalysis(t *testing.T, pages [][]*Occurrence) (*Analysis, []roleStat) {
	t.Helper()
	a := &Analysis{Pages: pages, params: DefaultParams().normalized(), tab: symtab.New()}
	InternPages(a.tab, pages)
	a.initLayout()
	a.assignBaseRoles()
	return a, a.computeRoleStats()
}

// largestGroup returns the role group with the most roles.
func largestGroup(groups [][]int) []int {
	var best []int
	for _, g := range groups {
		if len(g) > len(best) {
			best = g
		}
	}
	return best
}

// Words swapped between pages invalidate their group; the tag subset
// still validates and is salvaged as one class.
func TestSalvageTagsOnlyClass(t *testing.T) {
	srcs := []string{
		"<html><body><div>alpha beta</div></body></html>",
		"<html><body><div>beta alpha</div></body></html>",
		"<html><body><div>alpha beta</div></body></html>",
	}
	a, stats := baseAnalysis(t, tokenizeAll(t, srcs, nil))
	group := largestGroup(a.groupRoles(stats, 3))
	if len(group) < 8 {
		t.Fatalf("expected one group holding tags and swapped words, got %d roles", len(group))
	}
	eqs, invalid := a.salvageEQs(nil, group, stats, nil)
	if !invalid {
		t.Error("swapped word order should invalidate the full group")
	}
	if len(eqs) != 1 {
		t.Fatalf("tags-only salvage should yield 1 class, got %d", len(eqs))
	}
	for _, d := range eqs[0].Descs {
		if d.Kind == KindWord {
			t.Errorf("salvaged class retains word separator %s", d)
		}
	}
}

// When even the tag subset is invalid (whole blocks reordered between
// pages), salvage partitions the tags by DOM path and keeps the per-path
// classes that validate.
func TestSalvagePathPartition(t *testing.T) {
	srcs := []string{
		"<html><body><div><i>x</i></div><p>y</p></body></html>",
		"<html><body><p>y</p><div><i>x</i></div></body></html>",
		"<html><body><div><i>x</i></div><p>y</p></body></html>",
	}
	a, stats := baseAnalysis(t, tokenizeAll(t, srcs, nil))
	group := largestGroup(a.groupRoles(stats, 3))
	eqs, invalid := a.salvageEQs(nil, group, stats, nil)
	if !invalid {
		t.Error("reordered blocks should invalidate the full group")
	}
	if len(eqs) < 2 {
		t.Fatalf("path partition should yield multiple classes, got %d", len(eqs))
	}
	for _, e := range eqs {
		paths := make(map[string]bool)
		for _, d := range e.Descs {
			if d.Kind == KindWord {
				t.Errorf("path-partition class retains word separator %s", d)
			}
			paths[d.Path] = true
		}
		if len(paths) != 1 {
			t.Errorf("salvaged class %s mixes paths %v", e, paths)
		}
	}
}

// An invalid group with no usable tag subset salvages to nothing.
func TestSalvageUnrecoverableGroup(t *testing.T) {
	wordPage := func(page int, vals ...string) []*Occurrence {
		out := make([]*Occurrence, len(vals))
		for i, v := range vals {
			out[i] = &Occurrence{Kind: KindWord, Value: v, Raw: v, Path: "p", Page: page, Pos: i}
		}
		return out
	}
	pages := [][]*Occurrence{
		wordPage(0, "a", "b"),
		wordPage(1, "b", "a"),
		wordPage(2, "a", "b"),
	}
	a, stats := baseAnalysis(t, pages)
	groups := a.groupRoles(stats, 3)
	if len(groups) != 1 || len(groups[0]) != 2 {
		t.Fatalf("expected one two-role group, got %v", groups)
	}
	eqs, invalid := a.salvageEQs(nil, groups[0], stats, nil)
	if !invalid || len(eqs) != 0 {
		t.Errorf("word-only invalid group: eqs=%v invalid=%v, want none/true", eqs, invalid)
	}
}

// mkEQ hand-builds a k-role class for hierarchy tests, one tuple list
// per page. Its role ids are id*100+i, so an analysis holding such
// classes counts mkRoles roles.
func mkEQ(id, k int, tuples [][]Tuple) *EQ {
	vector := make([]int, len(tuples))
	for pi, tups := range tuples {
		vector[pi] = len(tups)
	}
	roles := make([]int, k)
	for i := range roles {
		roles[i] = id*100 + i
	}
	return &EQ{ID: id, Roles: roles, Descs: make([]Desc, k), Vector: vector, Tuples: tuples}
}

const mkRoles = 1000

func TestBuildHierarchyStraddlingClassDiscarded(t *testing.T) {
	page := make([]*Occurrence, 12)
	for i := range page {
		page[i] = &Occurrence{Kind: KindWord, Value: "w", Path: "p", Pos: i}
	}
	outer := mkEQ(1, 3, [][]Tuple{{{Positions: []int{0, 6, 11}}}})
	inner := mkEQ(2, 2, [][]Tuple{{{Positions: []int{2, 5}}}})
	// Straddles outer's separator at position 6: not inside any one slot.
	straddler := mkEQ(3, 2, [][]Tuple{{{Positions: []int{4, 8}}}})
	single := mkEQ(4, 1, [][]Tuple{{{Positions: []int{9}}}}) // K()==1: no slots

	a := &Analysis{
		Pages:  [][]*Occurrence{page},
		EQs:    []*EQ{outer, inner, straddler, single},
		params: DefaultParams().normalized(),
		nRoles: mkRoles,
	}
	BuildHierarchy(a)

	if len(a.EQs) != 2 || a.EQs[0] != outer || a.EQs[1] != inner {
		t.Fatalf("kept classes = %v, want [outer inner]", a.EQs)
	}
	if inner.Parent != outer || inner.ParentSlot != 0 {
		t.Errorf("inner parent = %v slot %d, want outer slot 0", inner.Parent, inner.ParentSlot)
	}
	if len(outer.Children) != 1 || outer.Children[0] != inner {
		t.Errorf("outer children = %v, want [inner]", outer.Children)
	}
}

func TestBuildHierarchySparseAndEmptyClasses(t *testing.T) {
	mkPage := func(n int) []*Occurrence {
		page := make([]*Occurrence, n)
		for i := range page {
			page[i] = &Occurrence{Kind: KindWord, Value: "w", Path: "p", Pos: i}
		}
		return page
	}
	outer := mkEQ(1, 2, [][]Tuple{{{Positions: []int{0, 7}}}, {{Positions: []int{0, 7}}}})
	// Occurs on only one page (vector [1 0]); still nests under outer.
	sparse := mkEQ(2, 2, [][]Tuple{{{Positions: []int{2, 4}}}, {}})
	// No tuples at all: coverage zero, kept as an unrelated root.
	empty := mkEQ(3, 2, [][]Tuple{{}, {}})

	a := &Analysis{
		Pages:  [][]*Occurrence{mkPage(8), mkPage(8)},
		EQs:    []*EQ{outer, sparse, empty},
		params: DefaultParams().normalized(),
		nRoles: mkRoles,
	}
	BuildHierarchy(a)

	if len(a.EQs) != 3 {
		t.Fatalf("kept %d classes, want 3", len(a.EQs))
	}
	if sparse.Parent != outer || sparse.ParentSlot != 0 {
		t.Errorf("sparse parent = %v slot %d, want outer slot 0", sparse.Parent, sparse.ParentSlot)
	}
	if empty.Parent != nil {
		t.Errorf("empty class parent = %v, want root", empty.Parent)
	}
}

func TestAnalyzeMaxIterExhaustion(t *testing.T) {
	pages := tokenizeAll(t, fig3Pages(), concertRecs())
	p := DefaultParams()
	p.MaxIter = 1
	a := Analyze(pages, p, nil)
	if a.Iterations != 1 {
		t.Errorf("Iterations = %d, want the MaxIter bound 1", a.Iterations)
	}
	if len(a.EQs) == 0 {
		t.Fatal("exhausted run still must produce classes")
	}
	kept := make(map[*EQ]bool, len(a.EQs))
	for _, e := range a.EQs {
		kept[e] = true
	}
	for _, e := range a.EQs {
		if e.Parent != nil && !kept[e.Parent] {
			t.Errorf("class %s has discarded parent", e)
		}
	}
}

// The early-stop hook path must be as worker-count-invariant as the full
// run: aborting after the second inspection leaves a partially
// differentiated analysis, and its every artifact must match the
// sequential abort exactly.
func TestBaseAnalyzeHookAbortDeterministicAcrossWorkers(t *testing.T) {
	pages := tokenizeAll(t, fig3Pages(), concertRecs())
	p := DefaultParams()
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		pp := p
		pp.Workers = workers
		base := NewBase(copyPages(pages), pp, nil, nil)
		calls := 0
		a := base.Analyze(pp, func(*Analysis) bool {
			calls++
			return calls < 2
		}, nil)
		if calls != 2 {
			t.Fatalf("workers=%d: hook called %d times, want abort on call 2", workers, calls)
		}
		got := analysisFingerprint(a)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d: aborted analysis diverged:\n got:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}
