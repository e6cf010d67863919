// Package eqclass implements the wrapper-generation core of ObjectRunner
// (paper §III.C): ExAlg-style equivalence classes over token occurrence
// vectors, with token roles differentiated by (i) HTML features, (ii)
// positions with respect to previously found equivalence classes, and
// (iii) semantic annotations — first non-conflicting, then conflicting
// ones (Algorithm 2). The resulting hierarchy of valid equivalence classes
// is the input of the template-construction step.
package eqclass

import (
	"fmt"
	"slices"
	"strings"
	"unicode"

	"objectrunner/internal/annotate"
	"objectrunner/internal/dom"
	"objectrunner/internal/recognize"
	"objectrunner/internal/symtab"
)

// TokKind discriminates page tokens: words or HTML tags (paper §III.C:
// "occurrence vectors for page tokens (words or HTML tags)").
type TokKind int

const (
	// KindStartTag is an opening tag occurrence.
	KindStartTag TokKind = iota
	// KindEndTag is a closing tag occurrence.
	KindEndTag
	// KindWord is a single word of text content.
	KindWord
)

// String returns a short name for the kind.
func (k TokKind) String() string {
	switch k {
	case KindStartTag:
		return "tag"
	case KindEndTag:
		return "endtag"
	case KindWord:
		return "word"
	}
	return "?"
}

// Occurrence is one token occurrence on one page, carrying the features
// used for role differentiation: the token value, its DOM path (the HTML
// criterion), its annotations (the semantic criterion), and its position
// (the equivalence-class criterion).
type Occurrence struct {
	Kind  TokKind
	Value string    // tag name or lower-cased word
	Raw   string    // the word as it appears in the page (original case)
	Path  string    // DOM path of the owning element
	Node  *dom.Node // owning element (tags) or parent element (words)
	Page  int       // page index within the sample
	Pos   int       // position in the page's token sequence
	Types []string  // annotation types on the owning element

	// Val and Pth are the interned forms of Value and Path, filled by
	// TokenizeInternPage/InternPages (analysis) or
	// TokenizeLookupPage/LookupSyms (serving). They stay symtab.None
	// until one of those passes runs; analysis and matching compare
	// symbols, never the strings.
	Val symtab.Sym
	Pth symtab.Sym
}

// Annotated reports whether the occurrence carries at least one
// annotation type.
func (o *Occurrence) Annotated() bool { return len(o.Types) > 0 }

// SingleType returns the occurrence's unique annotation type, or "" when
// it has none or several (the paper's conflicting case).
func (o *Occurrence) SingleType() string {
	if len(o.Types) == 1 {
		return o.Types[0]
	}
	return ""
}

// Desc is the page-independent description of a separator token, used to
// re-locate template tokens on unseen pages during extraction.
type Desc struct {
	Kind  TokKind
	Value string
	Path  string
	// Ordinal disambiguates annotation-differentiated separators that
	// are structurally identical: it is the 1-based occurrence index of
	// this (kind, value, path) signature within a repetition of the
	// class, learned from the sample (0 means "first match"). The
	// classless record <div>s of the running example need it — the date
	// div is, say, always the third div of the record.
	Ordinal int

	// Val and Pth mirror Value and Path in the owning wrapper's symbol
	// table; extraction-time matching compares these instead of the
	// strings. They are rebound whenever the descriptor changes tables
	// (wrapper compaction, persistence restore).
	Val symtab.Sym
	Pth symtab.Sym
}

// Sig returns the structural signature (without the ordinal).
func (d Desc) Sig() string {
	return fmt.Sprintf("%d|%s|%s", d.Kind, d.Value, d.Path)
}

// DescOf returns the occurrence's descriptor.
func DescOf(o *Occurrence) Desc {
	return Desc{Kind: o.Kind, Value: o.Value, Path: o.Path, Val: o.Val, Pth: o.Pth}
}

// String renders the descriptor for diagnostics.
func (d Desc) String() string {
	switch d.Kind {
	case KindStartTag:
		return "<" + d.Value + ">@" + d.Path
	case KindEndTag:
		return "</" + d.Value + ">@" + d.Path
	default:
		return fmt.Sprintf("%q@%s", d.Value, d.Path)
	}
}

// wordType records that a word of an annotation's matched value
// witnesses the annotation's type.
type wordType struct{ word, typ string }

// appendWordTypes appends the (word, type) pairs of the annotations'
// matched values to dst, each pair once, in first-seen order. A text
// node holds a few annotations, so a list scan beats a map built per
// node.
func appendWordTypes(dst []wordType, anns []annotate.Ann) []wordType {
	for _, a := range anns {
		for _, w := range recognize.Tokenize(a.Value) {
			if p := (wordType{w, a.Type}); !slices.Contains(dst, p) {
				dst = append(dst, p)
			}
		}
	}
	return dst
}

// typesOfWord returns the types witnessed by every sub-token of the page
// word ("$9.99" and "7:00p" tokenize to several sub-tokens that must all
// belong to the matched value), in the order the pairs first name them.
func typesOfWord(wordTypes []wordType, w string) []string {
	if len(wordTypes) == 0 {
		return nil
	}
	toks := recognize.Tokenize(w)
	if len(toks) == 0 {
		return nil
	}
	var cand []string
	for _, p := range wordTypes {
		if p.word == toks[0] {
			cand = append(cand, p.typ)
		}
	}
	for _, t := range toks[1:] {
		kept := cand[:0]
		for _, c := range cand {
			if slices.Contains(wordTypes, wordType{t, c}) {
				kept = append(kept, c)
			}
		}
		cand = kept
	}
	if len(cand) == 0 {
		return nil
	}
	return cand
}

// TagValue returns the token value of an element: the tag name, refined
// by the element's first class token when present — class attributes
// carry the template's own field structure ("f-title" vs "f-price") and
// are part of the HTML features that differentiate token roles.
func TagValue(n *dom.Node) string {
	if cls, ok := n.Attr("class"); ok {
		if f := strings.Fields(cls); len(f) > 0 {
			return n.Data + "." + strings.ToLower(f[0])
		}
	}
	return n.Data
}

// TokenizePage converts a page region into its token sequence. When pa is
// non-nil, tag occurrences inherit the annotation types of their element,
// and word occurrences carry the types of the matched values they belong
// to. Skipped content: comments and doctypes.
//
// Occurrences are laid out in one contiguous page arena: the returned
// pointer slice indexes a single []Occurrence backing array, so a page's
// token sequence costs two allocations instead of one per token, and
// CopyPage can duplicate it with two more. DOM paths are built
// incrementally during the walk (seeded from the region root's ancestry,
// so region-scoped tokenization still yields document-rooted paths
// identical to Node.Path()).
func TokenizePage(root *dom.Node, pa *annotate.PageAnnotations, page int) []*Occurrence {
	return finishArena(tokenizeArena(root, pa), page)
}

// TokenizeInternPage is TokenizePage fused with symbol interning: the
// page's Val/Pth symbols are assigned against tab in document order while
// the arena is still hot, instead of by a separate InternPages pass over
// all pages later. This is the per-worker half of the fused parallel
// tokenize→intern stage: each worker interns its pages into a
// worker-local table with zero cross-worker lock traffic, and the local
// tables are merged deterministically afterwards (symtab.Table.Merge).
func TokenizeInternPage(tab *symtab.Table, root *dom.Node, pa *annotate.PageAnnotations, page int) []*Occurrence {
	arena := tokenizeArena(root, pa)
	for i := range arena {
		arena[i].Val = tab.Intern(arena[i].Value)
		arena[i].Pth = tab.Intern(arena[i].Path)
	}
	return finishArena(arena, page)
}

// TokenizeLookupPage is TokenizePage fused with the serving path's
// read-only symbol resolution (LookupSyms): tokens are resolved against
// the frozen wrapper table in the same pass that lays out the arena.
// Unknown tokens resolve to symtab.None and can never match a learned
// descriptor. A nil table leaves the symbols at None, like TokenizePage.
func TokenizeLookupPage(tab *symtab.Table, root *dom.Node, page int) []*Occurrence {
	arena := tokenizeArena(root, nil)
	if tab != nil {
		for i := range arena {
			arena[i].Val = tab.Lookup(arena[i].Value)
			arena[i].Pth = tab.Lookup(arena[i].Path)
		}
	}
	return finishArena(arena, page)
}

// tokenizeArena walks the region and lays the token occurrences out in
// one contiguous arena, leaving Page/Pos/Val/Pth for the caller to fill.
// The arena is sized by a counting pass first: appending into a growing
// arena allocated about three times the final size.
func tokenizeArena(root *dom.Node, pa *annotate.PageAnnotations) []Occurrence {
	base := ""
	if root.Parent != nil {
		base = root.Parent.Path()
	}
	arena := make([]Occurrence, 0, countTokens(root))
	var words []string // the current text node's words, reused
	var wordTypes []wordType
	var walk func(n *dom.Node, parentPath string)
	walk = func(n *dom.Node, parentPath string) {
		switch n.Type {
		case dom.TextNode:
			parent := n.Parent
			path := "#text"
			if parent != nil {
				path = parentPath
			}
			// A word carries an annotation type only when it belongs to
			// the matched value — template words sharing the node with a
			// value ("by" next to author names) stay unannotated, so they
			// remain separator candidates.
			wordTypes = wordTypes[:0]
			if pa != nil && parent != nil {
				wordTypes = appendWordTypes(wordTypes, pa.Anns[parent])
			}
			words = appendFields(words[:0], n.Data)
			for _, w := range words {
				arena = append(arena, Occurrence{
					Kind:  KindWord,
					Value: strings.ToLower(w),
					Raw:   w,
					Path:  path,
					Node:  parent,
					Types: typesOfWord(wordTypes, w),
				})
			}
		case dom.ElementNode:
			var types []string
			if pa != nil {
				types = pa.Types(n)
			}
			v := TagValue(n)
			path := n.Data
			if parentPath != "" {
				path = parentPath + "/" + n.Data
			}
			arena = append(arena, Occurrence{Kind: KindStartTag, Value: v, Path: path, Node: n, Types: types})
			for _, c := range n.Children {
				walk(c, path)
			}
			arena = append(arena, Occurrence{Kind: KindEndTag, Value: v, Path: path, Node: n, Types: types})
		case dom.DocumentNode:
			for _, c := range n.Children {
				walk(c, parentPath)
			}
		}
	}
	walk(root, base)
	return arena
}

// countTokens returns the number of occurrences tokenizeArena lays out
// for the subtree: a start and an end tag per element, one word per
// field of each text node.
func countTokens(n *dom.Node) int {
	switch n.Type {
	case dom.TextNode:
		words, _ := dom.FieldStats(n.Data)
		return words
	case dom.ElementNode:
		c := 2
		for _, ch := range n.Children {
			c += countTokens(ch)
		}
		return c
	case dom.DocumentNode:
		c := 0
		for _, ch := range n.Children {
			c += countTokens(ch)
		}
		return c
	}
	return 0
}

// appendFields appends the fields of s, as strings.Fields splits them,
// to dst.
func appendFields(dst []string, s string) []string {
	start := -1
	for i, r := range s {
		if unicode.IsSpace(r) {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// finishArena stamps page/position ids and builds the pointer slice over
// the arena.
func finishArena(arena []Occurrence, page int) []*Occurrence {
	occs := make([]*Occurrence, len(arena))
	for i := range arena {
		arena[i].Page = page
		arena[i].Pos = i
		occs[i] = &arena[i]
	}
	return occs
}

// CopyPage duplicates a page's occurrences into a fresh arena. The copies
// share the immutable strings and annotation slices but have independent
// symbols, so one tokenization can be interned into several tables.
func CopyPage(page []*Occurrence) []*Occurrence {
	arena := make([]Occurrence, len(page))
	out := make([]*Occurrence, len(page))
	for i, o := range page {
		arena[i] = *o
		out[i] = &arena[i]
	}
	return out
}

// InternPages assigns Val/Pth symbols to every occurrence that does not
// have them yet, in page and token order, so a given sample always
// produces the same symbol values. Call it once, sequentially, after
// (possibly parallel) tokenization. Occurrences already carrying symbols
// are skipped — they must have been interned against the same table.
//
// Pages interned by a single pass (the fused tokenize+intern pipeline,
// or a previous InternPages call) are detected by their boundary tokens
// and skipped wholesale, so re-entry is O(pages), not O(tokens): interning
// happens in token order, so a page whose first and last occurrences both
// carry symbols was fully interned.
func InternPages(tab *symtab.Table, pages [][]*Occurrence) {
	for _, page := range pages {
		if n := len(page); n > 0 &&
			page[0].Val != symtab.None && page[0].Pth != symtab.None &&
			page[n-1].Val != symtab.None && page[n-1].Pth != symtab.None {
			continue
		}
		for _, o := range page {
			if o.Val == symtab.None {
				o.Val = tab.Intern(o.Value)
			}
			if o.Pth == symtab.None {
				o.Pth = tab.Intern(o.Path)
			}
		}
	}
}

// RemapSyms rewrites a page's Val/Pth symbols through a Merge remap
// (remap[localSym] = canonicalSym), converting occurrences interned
// against a worker-local table to the canonical merged numbering. Every
// occurrence must carry symbols assigned by the table the remap was built
// from; pages whose remap is the identity (symtab.IdentityRemap) need no
// pass at all.
func RemapSyms(remap []symtab.Sym, page []*Occurrence) {
	for _, o := range page {
		o.Val = remap[o.Val]
		o.Pth = remap[o.Pth]
	}
}

// LookupSyms fills Val/Pth by read-only lookup against a frozen table —
// the serving path. Tokens the wrapper never saw resolve to symtab.None,
// which can never equal a learned descriptor's symbol, so unknown
// vocabulary simply never matches.
func LookupSyms(tab *symtab.Table, occs []*Occurrence) {
	if tab == nil {
		return
	}
	for _, o := range occs {
		o.Val = tab.Lookup(o.Value)
		o.Pth = tab.Lookup(o.Path)
	}
}
