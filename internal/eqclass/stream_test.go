package eqclass

import (
	"fmt"
	"strings"
	"testing"

	"objectrunner/internal/clean"
	"objectrunner/internal/dom"
	"objectrunner/internal/segment"
	"objectrunner/internal/symtab"
)

// treeTokens is the reference pipeline: parse+clean, optional block
// scoping, tokenize with read-only lookup — exactly what the serving
// tree path runs.
func treeTokens(tab *symtab.Table, src string, key *segment.Key, page int) []*Occurrence {
	doc := clean.Page(src)
	region := doc
	if key != nil {
		if n := segment.FindByKey(doc, *key); n != nil {
			region = n
		}
	}
	return TokenizeLookupPage(tab, region, page)
}

// fullTable interns every token of the cleaned tree so stream/tree
// symbol comparisons are meaningful (a lookup miss would flatten
// everything to None and hide divergences).
func fullTable(src string) *symtab.Table {
	tab := symtab.New()
	for _, o := range TokenizePage(clean.Page(src), nil, 0) {
		tab.Intern(o.Value)
		tab.Intern(o.Path)
	}
	return tab
}

func diffTokens(t *testing.T, want, got []*Occurrence) {
	t.Helper()
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		w, g := want[i], got[i]
		if w.Kind != g.Kind || w.Raw != g.Raw || w.Val != g.Val || w.Pth != g.Pth || w.Page != g.Page || w.Pos != g.Pos {
			t.Fatalf("token %d: tree {kind:%v raw:%q val:%d pth:%d pos:%d} vs stream {kind:%v raw:%q val:%d pth:%d pos:%d} (tree value %q path %q)",
				i, w.Kind, w.Raw, w.Val, w.Pth, w.Pos, g.Kind, g.Raw, g.Val, g.Pth, g.Pos, w.Value, w.Path)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("token count: tree %d vs stream %d", len(want), len(got))
	}
}

var streamCases = []struct {
	name string
	src  string
}{
	{"well_formed", `<!DOCTYPE html><html><head><title>T</title><meta charset="utf-8"></head><body><div class="main"><ul><li><span>Item One</span></li><li><span>Item Two</span></li></ul></div></body></html>`},
	{"no_html_no_body", `<div><p>hello world</p><p>again</p></div>`},
	{"html_no_body", `<html><div>content here</div></html>`},
	{"body_no_html", `<body><div>content here</div></body>`},
	{"entity_heavy", `<html><body><p>Fish &amp; Chips &lt;fresh&gt; &#65;BC &copy; 2024 &nbsp;done &unknown; &#x41;x</p></body></html>`},
	{"raw_text_title_kept", `<html><body><title>Me &amp; You</title><div>after</div></body></html>`},
	{"raw_text_dropped", `<html><body><script>var x = "<div>not real</div>";</script><style>.a{color:red}</style><div>real</div></body></html>`},
	{"unterminated_raw", `<html><body><div>seen</div><script>var x = 1;`},
	{"hidden_elements", `<html><body><div hidden>gone</div><input type="hidden" name="tok"><div style="display: none">gone too</div><div style="VISIBILITY:  hidden">also</div><div>kept</div></body></html>`},
	{"empty_cascade", `<html><body><div><span><i></i></span></div><div>kept</div><td></td></body></html>`},
	{"void_and_selfclosing", `<html><body><br><img src="x.png"><hr/><wbr><div>text<br/>more</div></body></html>`},
	{"auto_close_li", `<html><body><ul><li>one<li>two<li>three</ul></body></html>`},
	{"auto_close_p_block", `<html><body><p>para one<div>block</div><p>para two</body></html>`},
	{"auto_close_table", `<html><body><table><tr><td>a<td>b<tr><td>c</table></body></html>`},
	{"stray_end_tags", `<html><body><div>x</span></div></article>more</body></html>`},
	{"stray_end_popover", `<html><body><div><span>deep</div>after</body></html>`},
	{"comments_everywhere", `<!-- top --><html><body><!-- mid --><div>x<!-- inner --></div></body></html>`},
	{"doctype_keeps_parent", `<html><body><div><!doctype odd></div><div>real</div></body></html>`},
	{"class_values", `<html><body><div class="First second">x</div><span class=" lone ">y</span><b class="">z</b></body></html>`},
	{"uppercase_markup", `<HTML><BODY><DIV CLASS="Big">Mixed Case Words</DIV></BODY></HTML>`},
	{"whitespace_soup", "<html><body><div>\n\t  spaced out  \n</div>  \t <div> </div></body></html>"},
	{"lone_lt", `<html><body><p>a < b and a <3 c</p></body></html>`},
	{"content_after_body_close", `<html><body><div>in</div></body><div>after</div></html>`},
	{"text_at_html_level", `<html>stray <body><div>x</div></body></html>`},
	{"nested_list_records", `<html><body><ul><li><div>Artist</div><div>Date</div><div><span><a>Venue</a></span>, <span>Addr</span></div></li></ul></body></html>`},
	{"textarea_dropped", `<html><body><textarea>ignore <b>this</b></textarea><div>keep</div></body></html>`},
	{"forms_dropped", `<html><body><form><select><option>a</option></select><button>go</button></form><div>data</div></body></html>`},
	{"deep_nesting", `<html><body>` + strings.Repeat(`<div class="lvl">`, 30) + `bottom` + strings.Repeat(`</div>`, 30) + `</body></html>`},
	{"empty_page", ``},
	{"only_whitespace", "  \n\t  "},
	{"only_doctype", `<!DOCTYPE html>`},
	{"late_html", `<div>early</div><html><span>wrapped</span></html>`},
	{"self_closed_html", `<html/>0`},
	{"self_closed_html_then_block", `<html/><div>x</div>`},
	{"case_folded_attr_names", `<html><body><div ſtyle="display:none">gone</div><div claſs="Folded">kept</div></body></html>`},
	{"duplicate_attrs", `<html><body><div type="text" type="hidden">kept?</div><div type="hidden" type="text">gone</div></body></html>`},
}

// TestStreamTokenizerMatchesTree holds the streaming tokenizer
// byte-identical to the tree pipeline on every structure it claims to
// handle, and requires an explicit bail (never silent divergence) on the
// rest.
func TestStreamTokenizerMatchesTree(t *testing.T) {
	for _, tc := range streamCases {
		t.Run(tc.name, func(t *testing.T) {
			tab := fullTable(tc.src)
			var a StreamArena
			got, ok := TokenizeLookupStream(&a, tab, tc.src, nil, 3)
			if !ok {
				t.Skipf("stream bailed (tree fallback) on %q", tc.name)
			}
			diffTokens(t, treeTokens(tab, tc.src, nil, 3), got)
		})
	}
}

// streamBailCases are structures the fused pass cannot reproduce.
var streamBailCases = []struct {
	name string
	src  string
}{
	{"body_outside_html", `<html><div>x</div></html><body>y</body>`},
	{"html_promised_never_delivered", `<p>a &lt;html&gt; page about <b>&amp;html</b></p><div title="<html>">x</div>`},
	{"body_promised_never_delivered", `<html><div data-x="<body>">x</div></html>`},
}

// TestStreamTokenizerBailsAreExplicit runs structures the fused pass
// cannot reproduce and asserts it refuses them instead of emitting a
// divergent stream.
func TestStreamTokenizerBailsAreExplicit(t *testing.T) {
	for _, tc := range streamBailCases {
		tab := fullTable(tc.src)
		var a StreamArena
		got, ok := TokenizeLookupStream(&a, tab, tc.src, nil, 0)
		if !ok {
			continue // explicit bail: tree fallback takes over
		}
		// If it did not bail, the output must still match the tree.
		t.Run(tc.name, func(t *testing.T) {
			diffTokens(t, treeTokens(tab, tc.src, nil, 0), got)
		})
	}
}

// TestStreamTokenizerBlockScoping drives the candidate logic: full
// attr-signature match, path-only fallback, and whole-page fallback.
func TestStreamTokenizerBlockScoping(t *testing.T) {
	src := `<html><body><div class="nav"><span>menu</span></div><div class="main" id="m"><ul><li>one</li><li>two</li></ul></div><div class="main"><p>decoy</p></div></body></html>`
	tab := fullTable(src)

	keys := []struct {
		name string
		key  segment.Key
	}{
		{"full_match", segment.Key{Tag: "div", Path: "html/body/div", AttrSig: `class=main;id=m`}},
		{"path_only", segment.Key{Tag: "div", Path: "html/body/div", AttrSig: `class=gone`}},
		{"no_match_whole_page", segment.Key{Tag: "article", Path: "html/body/article", AttrSig: ""}},
		{"empty_candidate_skipped", segment.Key{Tag: "span", Path: "html/body/div/span", AttrSig: ""}},
	}
	for _, k := range keys {
		t.Run(k.name, func(t *testing.T) {
			sk := StreamKey{Tag: k.key.Tag, Path: k.key.Path, AttrSig: k.key.AttrSig}
			var a StreamArena
			got, ok := TokenizeLookupStream(&a, tab, src, &sk, 0)
			if !ok {
				t.Fatalf("unexpected bail")
			}
			diffTokens(t, treeTokens(tab, src, &k.key, 0), got)
		})
	}

	// AttrSignature lower-cases the whole attribute name; the tokenizer
	// only its ASCII letters.
	t.Run("non_ascii_attr_name", func(t *testing.T) {
		src := `<html><body><div>decoy</div><div Éclat="1">x</div></body></html>`
		key := segment.Key{Tag: "div", Path: "html/body/div", AttrSig: "éclat=1"}
		tab := fullTable(src)
		sk := StreamKey{Tag: key.Tag, Path: key.Path, AttrSig: key.AttrSig}
		var a StreamArena
		got, ok := TokenizeLookupStream(&a, tab, src, &sk, 0)
		if !ok {
			t.Fatalf("unexpected bail")
		}
		diffTokens(t, treeTokens(tab, src, &key, 0), got)
	})

	// A full match found while a body is still promised but not seen:
	// the tree gives the html a body, so the key's body-less path never
	// matches there. The pass must not stop at the match.
	t.Run("match_before_body_synthesis", func(t *testing.T) {
		src := `<html><div class="m">x</div><p title="<body>">y</p></html>`
		key := segment.Key{Tag: "div", Path: "html/div", AttrSig: "class=m"}
		tab := fullTable(src)
		sk := StreamKey{Tag: key.Tag, Path: key.Path, AttrSig: key.AttrSig}
		var a StreamArena
		if got, ok := TokenizeLookupStream(&a, tab, src, &sk, 0); ok {
			diffTokens(t, treeTokens(tab, src, &key, 0), got)
		}
	})
}

// TestStreamArenaReuse proves the arena is safe to reuse across pages:
// a second, different page on the same arena must match its own tree
// output (no state bleed), and repeated runs must be stable.
func TestStreamArenaReuse(t *testing.T) {
	var a StreamArena
	for round := 0; round < 3; round++ {
		for i, tc := range streamCases {
			tab := fullTable(tc.src)
			got, ok := TokenizeLookupStream(&a, tab, tc.src, nil, i)
			if !ok {
				continue
			}
			diffTokens(t, treeTokens(tab, tc.src, nil, i), got)
		}
	}
}

// TestStreamTokenizerLargePage exercises arena growth across chunk
// boundaries with a page big enough to force several reallocations.
func TestStreamTokenizerLargePage(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`<html><body><table>`)
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, `<tr><td class="k">key%d</td><td>value %d text</td></tr>`, i, i)
	}
	sb.WriteString(`</table></body></html>`)
	src := sb.String()
	tab := fullTable(src)
	var a StreamArena
	got, ok := TokenizeLookupStream(&a, tab, src, nil, 0)
	if !ok {
		t.Fatalf("unexpected bail on large page")
	}
	diffTokens(t, treeTokens(tab, src, nil, 0), got)
}

// FuzzStreamTokens holds the fused pass to "bail, don't diverge" at the
// token level: for any input, TokenizeLookupStream either bails or
// yields exactly treeTokens' stream under a table holding every token of
// the cleaned tree — once over the whole page and once keyed to the
// first element of the cleaned tree, other than html and body, that has
// children. A divergence is fixed in the stream pass, never by loosening
// this comparison.
func FuzzStreamTokens(f *testing.F) {
	for _, tc := range streamCases {
		f.Add(tc.src)
	}
	for _, tc := range streamBailCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tab := fullTable(src)
		var a StreamArena
		if got, ok := TokenizeLookupStream(&a, tab, src, nil, 0); ok {
			diffTokens(t, treeTokens(tab, src, nil, 0), got)
		}
		var block *dom.Node
		clean.Page(src).Walk(func(n *dom.Node) bool {
			if block == nil && n.Type == dom.ElementNode && n.Data != "html" && n.Data != "body" && len(n.Children) > 0 {
				block = n
			}
			return block == nil
		})
		if block == nil {
			return
		}
		key := segment.KeyOf(block)
		sk := StreamKey{Tag: key.Tag, Path: key.Path, AttrSig: key.AttrSig}
		if got, ok := TokenizeLookupStream(&a, tab, src, &sk, 0); ok {
			diffTokens(t, treeTokens(tab, src, &key, 0), got)
		}
	})
}
