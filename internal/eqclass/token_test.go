package eqclass

import (
	"slices"
	"strings"
	"testing"

	"objectrunner/internal/annotate"
	"objectrunner/internal/clean"
	"objectrunner/internal/symtab"
)

// occEqual compares the full observable occurrence state, symbols
// included.
func occEqual(a, b *Occurrence) bool {
	if a.Kind != b.Kind || a.Value != b.Value || a.Raw != b.Raw || a.Path != b.Path ||
		a.Page != b.Page || a.Pos != b.Pos || a.Val != b.Val || a.Pth != b.Pth ||
		len(a.Types) != len(b.Types) {
		return false
	}
	for i := range a.Types {
		if a.Types[i] != b.Types[i] {
			return false
		}
	}
	return true
}

// TestTokenizeInternPageMatchesSeparatePasses pins the fusion: a fused
// tokenize+intern must produce exactly the occurrences (symbols
// included) of TokenizePage followed by InternPages, against a table
// with identical numbering.
func TestTokenizeInternPageMatchesSeparatePasses(t *testing.T) {
	recs := concertRecs()
	for pi, src := range fig3Pages() {
		page := clean.Page(src)
		pa := annotate.AnnotatePage(page, recs)

		fusedTab := symtab.New()
		fused := TokenizeInternPage(fusedTab, page, pa, pi)

		sepTab := symtab.New()
		sep := TokenizePage(page, pa, pi)
		InternPages(sepTab, [][]*Occurrence{sep})

		if len(fused) != len(sep) {
			t.Fatalf("page %d: fused %d tokens, separate %d", pi, len(fused), len(sep))
		}
		for i := range fused {
			if !occEqual(fused[i], sep[i]) {
				t.Fatalf("page %d token %d diverged:\nfused    %+v\nseparate %+v", pi, i, *fused[i], *sep[i])
			}
		}
		if fusedTab.Len() != sepTab.Len() {
			t.Fatalf("page %d: fused table %d symbols, separate %d", pi, fusedTab.Len(), sepTab.Len())
		}
		for s := 1; s <= sepTab.Len(); s++ {
			if fusedTab.StringOf(symtab.Sym(s)) != sepTab.StringOf(symtab.Sym(s)) {
				t.Fatalf("page %d: symbol %d = %q fused vs %q separate",
					pi, s, fusedTab.StringOf(symtab.Sym(s)), sepTab.StringOf(symtab.Sym(s)))
			}
		}
	}
}

// TestTokenizeLookupPageMatchesSeparatePasses pins the serving-path
// fusion against TokenizePage + LookupSyms.
func TestTokenizeLookupPageMatchesSeparatePasses(t *testing.T) {
	srcs := fig3Pages()
	tab := symtab.New()
	// Learn the vocabulary of the first two pages only, so the third
	// carries both known and unknown tokens.
	for i, src := range srcs[:2] {
		TokenizeInternPage(tab, clean.Page(src), nil, i)
	}
	for pi, src := range srcs {
		page := clean.Page(src)
		fused := TokenizeLookupPage(tab, page, pi)
		sep := TokenizePage(page, nil, pi)
		LookupSyms(tab, sep)
		if len(fused) != len(sep) {
			t.Fatalf("page %d: fused %d tokens, separate %d", pi, len(fused), len(sep))
		}
		for i := range fused {
			if !occEqual(fused[i], sep[i]) {
				t.Fatalf("page %d token %d diverged:\nfused    %+v\nseparate %+v", pi, i, *fused[i], *sep[i])
			}
		}
	}
	// Nil table: symbols stay None, like plain TokenizePage.
	for _, o := range TokenizeLookupPage(nil, clean.Page(srcs[0]), 0) {
		if o.Val != symtab.None || o.Pth != symtab.None {
			t.Fatalf("nil table assigned symbols: %+v", *o)
		}
	}
}

// TestRemapSymsRewritesThroughMerge drives the worker-local path end to
// end on real pages: chunked local interning + Merge + RemapSyms must
// leave every occurrence with the symbols a sequential whole-sample
// intern pass assigns.
func TestRemapSymsRewritesThroughMerge(t *testing.T) {
	srcs := fig3Pages()
	recs := concertRecs()

	// Sequential reference.
	want := tokenizeAll(t, srcs, recs)
	seqTab := symtab.New()
	InternPages(seqTab, want)

	// Two workers: pages {0} and {1, 2}, each with a local table.
	pages := make([][]*Occurrence, len(srcs))
	locals := []*symtab.Table{symtab.New(), symtab.New()}
	chunks := [][]int{{0}, {1, 2}}
	for w, idxs := range chunks {
		for _, i := range idxs {
			page := clean.Page(srcs[i])
			pa := annotate.AnnotatePage(page, recs)
			pages[i] = TokenizeInternPage(locals[w], page, pa, i)
		}
	}
	canon := symtab.New()
	for w, idxs := range chunks {
		remap := canon.Merge(locals[w])
		if w == 0 && !symtab.IdentityRemap(remap) {
			t.Fatal("first worker's remap must be the identity")
		}
		if symtab.IdentityRemap(remap) {
			continue
		}
		for _, i := range idxs {
			RemapSyms(remap, pages[i])
		}
	}
	for i := range pages {
		if len(pages[i]) != len(want[i]) {
			t.Fatalf("page %d: %d tokens, want %d", i, len(pages[i]), len(want[i]))
		}
		for j := range pages[i] {
			if pages[i][j].Val != want[i][j].Val || pages[i][j].Pth != want[i][j].Pth {
				t.Fatalf("page %d token %d: syms (%d,%d), sequential (%d,%d)",
					i, j, pages[i][j].Val, pages[i][j].Pth, want[i][j].Val, want[i][j].Pth)
			}
		}
	}
	if canon.Len() != seqTab.Len() {
		t.Fatalf("merged table %d symbols, sequential %d", canon.Len(), seqTab.Len())
	}
}

// The tokenizer splits text nodes with appendFields and sizes its arena
// with countTokens; both agree with strings.Fields.
func TestAppendFieldsMatchesFields(t *testing.T) {
	var buf []string
	for _, s := range []string{"", " ", "a", " a ", "a  b", "a\tb\nc", " a b　", "a\u0085b", "x \xff y", "\xff\xfe"} {
		buf = appendFields(buf[:0], s)
		if want := strings.Fields(s); !slices.Equal(buf, want) {
			t.Errorf("appendFields(%q) = %q, want %q", s, buf, want)
		}
	}
	page := clean.Page(fig3Pages()[1])
	if got, want := countTokens(page), len(TokenizePage(page, nil, 0)); got != want {
		t.Errorf("countTokens = %d, TokenizePage laid out %d", got, want)
	}
}
