package symtab

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternDenseAndStable(t *testing.T) {
	tab := New()
	a := tab.Intern("alpha")
	b := tab.Intern("beta")
	if a != 1 || b != 2 {
		t.Fatalf("expected dense symbols 1,2 got %d,%d", a, b)
	}
	if got := tab.Intern("alpha"); got != a {
		t.Fatalf("re-intern changed symbol: %d vs %d", got, a)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if tab.StringOf(a) != "alpha" || tab.StringOf(b) != "beta" {
		t.Fatalf("StringOf mismatch: %q %q", tab.StringOf(a), tab.StringOf(b))
	}
}

func TestLookupNeverGrows(t *testing.T) {
	tab := New()
	tab.Intern("known")
	if got := tab.Lookup("unknown"); got != None {
		t.Fatalf("Lookup(unknown) = %d, want None", got)
	}
	if tab.Len() != 1 {
		t.Fatalf("Lookup grew the table: Len = %d", tab.Len())
	}
	if got := tab.Lookup("known"); got != 1 {
		t.Fatalf("Lookup(known) = %d, want 1", got)
	}
}

func TestNoneNeverAssigned(t *testing.T) {
	tab := New()
	if got := tab.Intern(""); got == None {
		t.Fatal("Intern returned None")
	}
	if tab.StringOf(None) != "" {
		t.Fatalf("StringOf(None) = %q, want empty", tab.StringOf(None))
	}
	if tab.StringOf(99) != "" {
		t.Fatalf("StringOf(out of range) = %q, want empty", tab.StringOf(99))
	}
}

func TestSymbolsRoundTrip(t *testing.T) {
	tab := New()
	for _, s := range []string{"div", "html/body/div", "price", ""} {
		tab.Intern(s)
	}
	snap := tab.Symbols()
	got, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tab.Len() {
		t.Fatalf("Len after restore = %d, want %d", got.Len(), tab.Len())
	}
	for i, s := range snap {
		y := Sym(i + 1)
		if got.StringOf(y) != s {
			t.Fatalf("StringOf(%d) = %q, want %q", y, got.StringOf(y), s)
		}
		if got.Lookup(s) != y {
			t.Fatalf("Lookup(%q) = %d, want %d", s, got.Lookup(s), y)
		}
	}
}

func TestRestoreRejectsDuplicates(t *testing.T) {
	if _, err := Restore([]string{"a", "b", "a"}); err == nil {
		t.Fatal("Restore accepted duplicate symbols")
	}
}

// TestMergeReproducesSequentialNumbering is the core determinism claim
// of the fused parallel intern stage: splitting a token stream into
// contiguous chunks, interning each into its own local table, and
// merging the locals left-to-right must assign every string exactly the
// id a single sequential pass over the whole stream would have.
func TestMergeReproducesSequentialNumbering(t *testing.T) {
	// A stream with heavy cross-chunk repetition (collisions) and some
	// chunk-local vocabulary.
	stream := []string{
		"div", "span", "div", "price", "a", "div", // chunk 1
		"span", "title", "div", "price", "b", "a", // chunk 2
		"em", "div", "title", "z", "span", "em", // chunk 3
	}
	seq := New()
	for _, s := range stream {
		seq.Intern(s)
	}
	for _, sizes := range [][]int{{18}, {6, 6, 6}, {1, 17}, {9, 9}, {5, 5, 5, 3}} {
		canon := New()
		lo := 0
		for _, size := range sizes {
			local := New()
			for _, s := range stream[lo : lo+size] {
				local.Intern(s)
			}
			remap := canon.Merge(local)
			// Every local symbol must land on the sequential table's id.
			for s := 1; s <= local.Len(); s++ {
				str := local.StringOf(Sym(s))
				if got, want := remap[s], seq.Lookup(str); got != want {
					t.Fatalf("chunks %v: %q remapped to %d, want sequential id %d", sizes, str, got, want)
				}
			}
			lo += size
		}
		if canon.Len() != seq.Len() {
			t.Fatalf("chunks %v: merged table has %d symbols, want %d", sizes, canon.Len(), seq.Len())
		}
		for s := 1; s <= seq.Len(); s++ {
			if canon.StringOf(Sym(s)) != seq.StringOf(Sym(s)) {
				t.Fatalf("chunks %v: symbol %d = %q, want %q", sizes, s, canon.StringOf(Sym(s)), seq.StringOf(Sym(s)))
			}
		}
	}
}

// TestMergeCollisionRemap pins the remap for symbols both tables know:
// the local id loses, the canonical id wins.
func TestMergeCollisionRemap(t *testing.T) {
	canon := New()
	canon.Intern("div")  // 1
	canon.Intern("span") // 2
	local := New()
	local.Intern("span")  // local 1 — collides, canonical 2
	local.Intern("price") // local 2 — new, canonical 3
	local.Intern("div")   // local 3 — collides, canonical 1
	remap := canon.Merge(local)
	if len(remap) != 4 {
		t.Fatalf("len(remap) = %d, want local.Len()+1 = 4", len(remap))
	}
	if remap[0] != None {
		t.Fatalf("remap[None] = %d, want None", remap[0])
	}
	for s, want := range map[Sym]Sym{1: 2, 2: 3, 3: 1} {
		if remap[s] != want {
			t.Errorf("remap[%d] = %d, want %d", s, remap[s], want)
		}
	}
	if canon.Len() != 3 {
		t.Errorf("canonical table grew to %d symbols, want 3", canon.Len())
	}
}

// TestMergeEmptyAndIdentity covers the degenerate worker shapes: a
// worker that saw no pages merges as a no-op, and the first worker's
// merge into an empty canonical table is the identity, so callers can
// skip its remap pass.
func TestMergeEmptyAndIdentity(t *testing.T) {
	canon := New()
	empty := New()
	remap := canon.Merge(empty)
	if len(remap) != 1 || remap[0] != None {
		t.Fatalf("merging an empty table: remap = %v, want [None]", remap)
	}
	if !IdentityRemap(remap) {
		t.Error("empty merge remap is not the identity")
	}
	first := New()
	first.Intern("div")
	first.Intern("span")
	remap = canon.Merge(first)
	if !IdentityRemap(remap) {
		t.Errorf("first merge into an empty table: remap = %v, want identity", remap)
	}
	second := New()
	second.Intern("price")
	second.Intern("div")
	remap = canon.Merge(second)
	if IdentityRemap(remap) {
		t.Errorf("colliding merge reported as identity: %v", remap)
	}
}

func TestConcurrentIntern(t *testing.T) {
	tab := New()
	const workers = 8
	const n = 200
	var wg sync.WaitGroup
	results := make([][]Sym, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = make([]Sym, n)
			for i := 0; i < n; i++ {
				results[w][i] = tab.Intern(fmt.Sprintf("tok-%d", i))
			}
		}(w)
	}
	wg.Wait()
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	// Every worker must agree on every symbol, and symbols must map back
	// to the string they were interned from.
	for i := 0; i < n; i++ {
		want := results[0][i]
		for w := 1; w < workers; w++ {
			if results[w][i] != want {
				t.Fatalf("worker %d disagrees on tok-%d: %d vs %d", w, i, results[w][i], want)
			}
		}
		if s := tab.StringOf(want); s != fmt.Sprintf("tok-%d", i) {
			t.Fatalf("StringOf(%d) = %q", want, s)
		}
	}
}

// TestFrozenTable: a frozen table returns the symbols it holds from
// Intern, Lookup and LookupBytes alike, answers None for strings it does
// not hold, and panics when asked to intern one.
func TestFrozenTable(t *testing.T) {
	words := []string{"div", "html/body/div", "", "ünïcode", "price"}
	open, frozen := New(), New()
	for _, w := range words {
		open.Intern(w)
		frozen.Intern(w)
	}
	if got := frozen.Freeze(); got != frozen {
		t.Fatal("Freeze returned a different table")
	}
	for _, s := range append(words, "unknown", "DIV") {
		want := open.Lookup(s)
		if got := frozen.Lookup(s); got != want {
			t.Errorf("frozen Lookup(%q) = %d, open table %d", s, got, want)
		}
		if got := frozen.LookupBytes([]byte(s)); got != want {
			t.Errorf("frozen LookupBytes(%q) = %d, open table %d", s, got, want)
		}
	}
	for i, w := range words {
		if got := frozen.Intern(w); got != Sym(i+1) {
			t.Errorf("frozen Intern(%q) = %d, want its symbol %d", w, got, i+1)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("interning a new string into a frozen table did not panic")
			}
		}()
		frozen.Intern("unknown")
	}()
	if frozen.Len() != len(words) || frozen.Lookup("unknown") != None {
		t.Errorf("the frozen table grew: Len = %d", frozen.Len())
	}
	if canon := New(); !IdentityRemap(canon.Merge(frozen)) {
		t.Error("merging a frozen table into an empty one is not the identity")
	}
}

// TestFrozenLookupsConcurrent reads a frozen table from several
// goroutines at once; under -race it checks that lock-free lookups on a
// frozen table are safe.
func TestFrozenLookupsConcurrent(t *testing.T) {
	tab := New()
	for i := 0; i < 100; i++ {
		tab.Intern(fmt.Sprintf("tok-%d", i))
	}
	tab.Freeze()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := []byte("tok-")
			for i := 0; i < 100; i++ {
				if got := tab.LookupBytes(fmt.Appendf(buf[:0], "tok-%d", i)); got != Sym(i+1) {
					t.Errorf("LookupBytes(tok-%d) = %d", i, got)
				}
				if got := tab.Intern(fmt.Sprintf("tok-%d", i)); got != Sym(i+1) {
					t.Errorf("Intern(tok-%d) = %d", i, got)
				}
			}
		}()
	}
	wg.Wait()
}
