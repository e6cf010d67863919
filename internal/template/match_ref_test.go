package template

import (
	"math/rand"
	"reflect"
	"testing"

	"objectrunner/internal/eqclass"
	"objectrunner/internal/symtab"
)

// refSig is the structural signature the reference matcher keys its
// occurrence counts on.
type refSig struct {
	kind     eqclass.TokKind
	val, pth symtab.Sym
}

// matchOnceRef is the map-keyed matcher the slot tables replaced, kept
// as the oracle the slot matcher must reproduce span for span: counts
// live in a map keyed by signature, and membership marks a tracked
// signature.
func matchOnceRef(toks []*eqclass.Occurrence, descs []eqclass.Desc, i, to int) ([]int, int, bool) {
	if len(descs) == 0 {
		return nil, to, false
	}
	counts := make(map[refSig]int)
	for _, d := range descs {
		counts[refSig{d.Kind, d.Val, d.Pth}] = 0
	}
	var positions []int
	for di, d := range descs {
		sig := refSig{d.Kind, d.Val, d.Pth}
		want := d.Ordinal
		if want <= 0 {
			want = counts[sig] + 1
		}
		found := -1
		for ; i < to; i++ {
			osig := refSig{toks[i].Kind, toks[i].Val, toks[i].Pth}
			if c, tracked := counts[osig]; tracked {
				counts[osig] = c + 1
			}
			if osig == sig && counts[osig] >= want {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, to, false
		}
		positions = append(positions, found)
		i = found + 1
		if di == 0 {
			for s := range counts {
				counts[s] = 0
			}
			counts[sig] = 1
		}
	}
	return positions, i, true
}

// findTuplesRef is findTuples over matchOnceRef.
func findTuplesRef(toks []*eqclass.Occurrence, descs []eqclass.Desc, from, to int) [][]int {
	var out [][]int
	for i := from; ; {
		span, next, ok := matchOnceRef(toks, descs, i, to)
		if !ok {
			return out
		}
		out = append(out, span)
		i = next
	}
}

// tupleSpans is findTuples' spans as position lists.
func tupleSpans(toks []*eqclass.Occurrence, n *Node, from, to int, sc *Scratch) [][]int {
	spans := findTuples(toks, n, from, to, sc)
	var out [][]int
	for _, s := range spans {
		out = append(out, append([]int(nil), s.positions...))
	}
	sc.putSpans(spans)
	return out
}

// sigOfByte decodes one byte into a signature of a small alphabet:
// four kinds (one no token carries in practice), value and path
// symbols 0–3 (0 being symtab.None).
func sigOfByte(b byte) (eqclass.TokKind, symtab.Sym, symtab.Sym) {
	return eqclass.TokKind(b & 3), symtab.Sym(b >> 2 & 3), symtab.Sym(b >> 4 & 3)
}

// fuzzTuples builds a page and a descriptor list from bytes: one token
// per page byte, and one descriptor per pair of descriptor bytes — its
// signature and its ordinal (-3 to 3; 0 and below mean "next match").
func fuzzTuples(page, descs []byte) ([]*eqclass.Occurrence, []eqclass.Desc) {
	toks := make([]*eqclass.Occurrence, len(page))
	for i, b := range page {
		k, v, p := sigOfByte(b)
		toks[i] = &eqclass.Occurrence{Kind: k, Val: v, Pth: p, Pos: i}
	}
	var ds []eqclass.Desc
	for i := 0; i+1 < len(descs); i += 2 {
		k, v, p := sigOfByte(descs[i])
		ds = append(ds, eqclass.Desc{Kind: k, Val: v, Pth: p, Ordinal: int(int8(descs[i+1])) % 4})
	}
	return toks, ds
}

// checkSlotMatcher compares the slot matcher with the reference on one
// page, descriptor list and range, through a reused scratch.
func checkSlotMatcher(t *testing.T, page, descs []byte, from, to int, sc *Scratch) {
	t.Helper()
	toks, ds := fuzzTuples(page, descs)
	from, to = min(from, len(toks)), min(to, len(toks))
	n := &Node{EQ: &eqclass.EQ{Descs: ds}}
	got := tupleSpans(toks, n, from, to, sc)
	want := findTuplesRef(toks, ds, from, to)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("page %v descs %v [%d, %d): slot matcher %v, reference %v", page, descs, from, to, got, want)
	}
}

// TestSlotMatcherMatchesReferenceRandom compares the two matchers on
// seeded random pages and descriptor lists over a small signature
// alphabet, so signatures repeat, collide on value and carry ordinals.
func TestSlotMatcherMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sc := NewScratch()
	for c := 0; c < 3000; c++ {
		page := make([]byte, rng.Intn(80))
		for i := range page {
			page[i] = byte(rng.Intn(64))
		}
		descs := make([]byte, 2*rng.Intn(7))
		for i := range descs {
			descs[i] = byte(rng.Intn(256))
			if i%2 == 0 && len(page) > 0 && rng.Intn(2) == 0 {
				descs[i] = page[rng.Intn(len(page))] // a signature the page holds
			}
		}
		from := rng.Intn(len(page) + 1)
		checkSlotMatcher(t, page, descs, from, from+rng.Intn(len(page)+1), sc)
	}
}

// FuzzMatchTuples: on any page and descriptor list over a small
// signature alphabet, with ordinals, the slot matcher finds exactly the
// spans of the map-keyed reference.
func FuzzMatchTuples(f *testing.F) {
	f.Add([]byte{0, 1, 4, 1, 0, 1, 4, 1}, []byte{0, 0, 1, 0, 4, 0}, 0, 255)
	f.Add([]byte{5, 5, 9, 5, 5, 9, 5, 9}, []byte{5, 0, 5, 2, 9, 0}, 1, 7)
	f.Add([]byte{1, 17, 33, 1, 17, 33, 49}, []byte{1, 0, 49, 1, 33, 255}, 0, 255)
	f.Fuzz(func(t *testing.T, page, descs []byte, from, to int) {
		if len(page) > 512 || len(descs) > 32 || from < 0 || to < 0 {
			return
		}
		checkSlotMatcher(t, page, descs, from, to, NewScratch())
	})
}
