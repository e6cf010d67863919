package dom_test

// The trees under test are built by clean.Page, the only HTML parser.

import (
	"strings"
	"testing"
	"testing/quick"

	"objectrunner/internal/clean"
	"objectrunner/internal/dom"
)

func TestParseSimple(t *testing.T) {
	doc := clean.Page(`<html><body><div class="a">hello</div></body></html>`)
	divs := doc.Find("div")
	if len(divs) != 1 {
		t.Fatalf("got %d divs, want 1", len(divs))
	}
	if got := divs[0].Text(); got != "hello" {
		t.Errorf("Text = %q, want %q", got, "hello")
	}
	if got := divs[0].AttrOr("class", ""); got != "a" {
		t.Errorf("class = %q, want %q", got, "a")
	}
	if got := divs[0].Path(); got != "html/body/div" {
		t.Errorf("Path = %q, want html/body/div", got)
	}
}

func TestParseUnclosedLi(t *testing.T) {
	doc := clean.Page(`<ul><li>one<li>two<li>three</ul>`)
	lis := doc.Find("li")
	if len(lis) != 3 {
		t.Fatalf("got %d li, want 3", len(lis))
	}
	for i, want := range []string{"one", "two", "three"} {
		if got := lis[i].Text(); got != want {
			t.Errorf("li[%d] = %q, want %q", i, got, want)
		}
	}
	// All lis must be siblings, not nested.
	for _, li := range lis {
		if li.Parent == nil || li.Parent.Data != "ul" {
			t.Errorf("li %q parent = %v, want ul", li.Text(), li.Parent)
		}
	}
}

func TestParseUnclosedP(t *testing.T) {
	doc := clean.Page(`<body><p>first<p>second<div>block</div></body>`)
	ps := doc.Find("p")
	if len(ps) != 2 {
		t.Fatalf("got %d p, want 2", len(ps))
	}
	div := doc.FindOne("div")
	if div == nil || div.Parent.Data != "body" {
		t.Errorf("div should be a child of body (open p implicitly closed)")
	}
}

func TestParseTableRepair(t *testing.T) {
	doc := clean.Page(`<table><tr><td>a<td>b<tr><td>c</table>`)
	trs := doc.Find("tr")
	if len(trs) != 2 {
		t.Fatalf("got %d tr, want 2", len(trs))
	}
	if got := len(trs[0].Find("td")); got != 2 {
		t.Errorf("row 0 has %d td, want 2", got)
	}
	if got := len(trs[1].Find("td")); got != 1 {
		t.Errorf("row 1 has %d td, want 1", got)
	}
}

func TestParseStrayEndTag(t *testing.T) {
	doc := clean.Page(`<div>a</span></div><span>b</span>`)
	if got := len(doc.Find("div")); got != 1 {
		t.Errorf("got %d div, want 1", got)
	}
	spans := doc.Find("span")
	if len(spans) != 1 {
		t.Fatalf("got %d span, want 1", len(spans))
	}
	if got := spans[0].Text(); got != "b" {
		t.Errorf("span text = %q, want b", got)
	}
}

func TestParseVoidElements(t *testing.T) {
	doc := clean.Page(`<div>a<br>b<img src="x.png">c</div>`)
	div := doc.FindOne("div")
	if div == nil {
		t.Fatal("no div")
	}
	if got := div.Text(); got != "a b c" {
		t.Errorf("text = %q, want %q", got, "a b c")
	}
	br := doc.FindOne("br")
	if br == nil || len(br.Children) != 0 {
		t.Error("br should exist and have no children")
	}
}

func TestParseScriptRawText(t *testing.T) {
	doc := clean.Page(`<script>if (a < b) { x("<div>"); }</script><p>after</p>`)
	if doc.FindOne("script") != nil {
		t.Error("script survived cleaning")
	}
	if got := len(doc.Find("div")); got != 0 {
		t.Errorf("div inside script leaked into tree: %d", got)
	}
	if p := doc.FindOne("p"); p == nil || p.Text() != "after" {
		t.Error("content after script lost")
	}
}

// TestParseComments: a comment is dropped without joining the text on
// either side of it.
func TestParseComments(t *testing.T) {
	doc := clean.Page(`<div>be<!-- a comment -->fore</div>`)
	div := doc.FindOne("div")
	if len(div.Children) != 2 || div.Children[0].Data != "be" || div.Children[1].Data != "fore" {
		t.Errorf("div children = %+v, want text nodes be and fore", div.Children)
	}
	doc.Walk(func(n *dom.Node) bool {
		if n.Type == dom.CommentNode {
			t.Errorf("comment survived: %q", n.Data)
		}
		return true
	})
}

func TestParseDoctype(t *testing.T) {
	doc := clean.Page(`<!DOCTYPE html><html><body>x</body></html>`)
	if doc.Children[0].Type != dom.DoctypeNode {
		t.Error("doctype not first child")
	}
}

func TestParseEntities(t *testing.T) {
	doc := clean.Page(`<div title="a &amp; b">Fish &amp; Chips &lt;3 &#65;&#x42;</div>`)
	div := doc.FindOne("div")
	if got := div.Text(); got != "Fish & Chips <3 AB" {
		t.Errorf("text = %q", got)
	}
	if got := div.AttrOr("title", ""); got != "a & b" {
		t.Errorf("title = %q", got)
	}
}

func TestParseEnsureStructure(t *testing.T) {
	doc := clean.Page(`<div>bare</div>`)
	body := doc.FindOne("body")
	if body == nil {
		t.Fatal("no body synthesized")
	}
	if div := body.FindOne("div"); div == nil {
		t.Error("div not moved under body")
	}
}

func TestParseAttributesVariants(t *testing.T) {
	doc := clean.Page(`<div type=text name='n' disabled value="v">x</div>`)
	in := doc.FindOne("div")
	if in == nil {
		t.Fatal("no div")
	}
	for _, tc := range []struct{ name, want string }{
		{"type", "text"}, {"name", "n"}, {"disabled", ""}, {"value", "v"},
	} {
		if got := in.AttrOr(tc.name, "missing"); got != tc.want {
			t.Errorf("attr %s = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestParseSelfClosing: a self-closed element takes no children, so the
// text after it is its sibling and the empty span is cleaned away.
func TestParseSelfClosing(t *testing.T) {
	doc := clean.Page(`<div><span/>after</div>`)
	if span := doc.FindOne("span"); span != nil {
		t.Errorf("empty self-closed span survived with %d children", len(span.Children))
	}
	if div := doc.FindOne("div"); div.OwnText() != "after" {
		t.Errorf("div text = %q, want after", div.OwnText())
	}
}

func TestParseNestedLists(t *testing.T) {
	doc := clean.Page(`<ul><li>a<ul><li>a1<li>a2</ul><li>b</ul>`)
	outer := doc.FindOne("ul")
	topLis := 0
	for _, c := range outer.Children {
		if c.IsElement("li") {
			topLis++
		}
	}
	if topLis != 2 {
		t.Errorf("outer ul has %d direct li, want 2", topLis)
	}
	inner := outer.FindOne("li").FindOne("ul")
	if inner == nil {
		t.Fatal("nested ul not under first li")
	}
	if got := len(inner.Find("li")); got != 2 {
		t.Errorf("inner ul has %d li, want 2", got)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	const src = `<html><body><div class="x"><span>a</span><span>b</span></div></body></html>`
	doc := clean.Page(src)
	out := doc.OuterHTML()
	if out != src {
		t.Errorf("round trip changed document:\n in: %s\nout: %s", src, out)
	}
}

func TestSerializeEscaping(t *testing.T) {
	n := dom.NewElement("div", dom.Attr{Name: "title", Value: `a"b&c`})
	n.AppendChild(dom.NewText("x<y&z"))
	got := n.OuterHTML()
	want := `<div title="a&quot;b&amp;c">x&lt;y&amp;z</div>`
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

// TestParseSerializeIdempotent checks the fixpoint property: parsing the
// serialization of a parsed document yields the same serialization.
func TestParseSerializeIdempotent(t *testing.T) {
	inputs := []string{
		`<ul><li>one<li>two</ul>`,
		`<table><tr><td>a<td>b</table>`,
		`<p>x<p>y<div>z</div>`,
		`<div>a<br>b</div>`,
		`bare text &amp; more`,
		`<div><!--c--><span>s</span></div>`,
	}
	for _, in := range inputs {
		once := clean.Page(in).OuterHTML()
		twice := clean.Page(once).OuterHTML()
		if once != twice {
			t.Errorf("not idempotent for %q:\n once: %s\ntwice: %s", in, once, twice)
		}
	}
}

func TestDecodeEntitiesQuick(t *testing.T) {
	// Property: decoding text with no ampersand is the identity.
	f := func(s string) bool {
		clean := strings.ReplaceAll(s, "&", "")
		return dom.DecodeEntities(clean) == clean
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCollapseSpaceQuick: CollapseSpace is strings.Fields joined by
// single spaces, on text it returns as is and on text it rebuilds, and
// FieldStats counts those fields and their bytes.
func TestCollapseSpaceQuick(t *testing.T) {
	want := func(s string) string { return strings.Join(strings.Fields(s), " ") }
	stats := func(s string) bool {
		words, bytes := dom.FieldStats(s)
		return words == len(strings.Fields(s)) && bytes == len(want(s))-max(words-1, 0)
	}
	for _, s := range []string{"", " ", "a", "a b", "a  b", " a", "a ", "a\tb", "a\u00a0b", "a\u2003b", "\xffa b\xfe", "é — b", "a\u0085"} {
		if got := dom.CollapseSpace(s); got != want(s) {
			t.Errorf("CollapseSpace(%q) = %q, want %q", s, got, want(s))
		}
		if !stats(s) {
			t.Errorf("FieldStats(%q) disagrees with strings.Fields", s)
		}
	}
	if err := quick.Check(func(s string) bool { return dom.CollapseSpace(s) == want(s) && stats(s) }, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeEntitiesRoundTrip(t *testing.T) {
	f := func(s string) bool {
		return dom.DecodeEntities(dom.EncodeEntities(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNodeManipulation(t *testing.T) {
	parent := dom.NewElement("div")
	a := dom.NewElement("span")
	b := dom.NewElement("em")
	parent.AppendChild(a)
	parent.AppendChild(b)
	if len(parent.Children) != 2 || a.Parent != parent {
		t.Fatal("append failed")
	}
	parent.RemoveChild(a)
	if len(parent.Children) != 1 || parent.Children[0] != b || a.Parent != nil {
		t.Error("remove failed")
	}
	// Removing a non-child is a no-op.
	parent.RemoveChild(a)
	if len(parent.Children) != 1 {
		t.Error("double remove changed tree")
	}
}

func TestNodeAttrs(t *testing.T) {
	n := dom.NewElement("div")
	n.SetAttr("class", "x")
	n.SetAttr("Class", "y") // case-insensitive replace
	if v, _ := n.Attr("CLASS"); v != "y" {
		t.Errorf("attr = %q, want y", v)
	}
	if len(n.Attrs) != 1 {
		t.Errorf("got %d attrs, want 1", len(n.Attrs))
	}
	n.DelAttr("class")
	if _, ok := n.Attr("class"); ok {
		t.Error("attr not deleted")
	}
}

func TestClone(t *testing.T) {
	doc := clean.Page(`<div a="1"><span>x</span></div>`)
	div := doc.FindOne("div")
	cp := div.Clone()
	if cp.Parent != nil {
		t.Error("clone should be detached")
	}
	cp.FindOne("span").Children[0].Data = "changed"
	if div.Text() != "x" {
		t.Error("clone mutation affected original")
	}
	if cp.AttrOr("a", "") != "1" {
		t.Error("clone lost attributes")
	}
}

func TestIndexPath(t *testing.T) {
	doc := clean.Page(`<html><body><div>a</div><div><span>b</span></div></body></html>`)
	spans := doc.Find("span")
	if len(spans) != 1 {
		t.Fatal("no span")
	}
	p := spans[0].IndexPath()
	// Walk the path and verify it lands back at the span.
	cur := doc
	for _, i := range p {
		cur = cur.Children[i]
	}
	if cur != spans[0] {
		t.Errorf("IndexPath %v does not resolve to the span", p)
	}
}

func TestTextCollapsing(t *testing.T) {
	doc := clean.Page("<div>  a \n\t b   <span> c </span></div>")
	if got := doc.FindOne("div").Text(); got != "a b c" {
		t.Errorf("text = %q, want %q", got, "a b c")
	}
}

func TestAttrSignature(t *testing.T) {
	a := dom.NewElement("div", dom.Attr{Name: "b", Value: "2"}, dom.Attr{Name: "a", Value: "1"})
	b := dom.NewElement("div", dom.Attr{Name: "a", Value: "1"}, dom.Attr{Name: "b", Value: "2"})
	if a.AttrSignature() != b.AttrSignature() {
		t.Error("signature should be order-insensitive")
	}
	if dom.NewElement("div").AttrSignature() != "" {
		t.Error("empty attrs should have empty signature")
	}
}

func TestCountNodes(t *testing.T) {
	doc := clean.Page(`<div><span>a</span><span>b</span></div>`)
	// document + html + body + div + 2 span + 2 text = 8
	if got := doc.CountNodes(); got != 8 {
		t.Errorf("CountNodes = %d, want 8", got)
	}
}

func TestParseDegenerateInputs(t *testing.T) {
	for _, src := range []string{"", "<", "<>", "</", "</x", "<!", "<!--", "<div", "&", "&#;", "&#xzz;", "text only"} {
		doc := clean.Page(src)
		if doc == nil {
			t.Fatalf("clean.Page(%q) returned nil", src)
		}
		_ = doc.OuterHTML() // must not panic
	}
}

func TestParseNeverPanicsQuick(t *testing.T) {
	f := func(s string) bool {
		doc := clean.Page(s)
		return doc != nil && doc.Type == dom.DocumentNode
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFindOnePrunes(t *testing.T) {
	doc := clean.Page(`<div id="first"><div id="second">x</div></div>`)
	first := doc.FindOne("div")
	if first.AttrOr("id", "") != "first" {
		t.Errorf("FindOne returned %q", first.AttrOr("id", ""))
	}
}

func TestDepthAndRoot(t *testing.T) {
	doc := clean.Page(`<html><body><div><span>x</span></div></body></html>`)
	span := doc.FindOne("span")
	if got := span.Depth(); got != 4 { // document > html > body > div > span
		t.Errorf("Depth = %d, want 4", got)
	}
	if span.Root() != doc {
		t.Error("Root did not return document")
	}
}

func TestTitleRawText(t *testing.T) {
	doc := clean.Page(`<body><title>A & B < C</title>x</body>`)
	title := doc.FindOne("title")
	if title == nil {
		t.Fatal("no title")
	}
	if got := title.OwnText(); got != "A & B < C" {
		t.Errorf("title = %q", got)
	}
}

// HasPath(p) holds exactly when p is the node's Path.
func TestHasPathMatchesPath(t *testing.T) {
	doc := clean.Page(`<html><body><div class="a"><p>x <b>y</b></p><ul><li>1</li><li>2</li></ul></div></body></html>`)
	nodes := 0
	doc.Walk(func(n *dom.Node) bool {
		nodes++
		p := n.Path()
		if !n.HasPath(p) {
			t.Errorf("HasPath(%q) = false on its own path", p)
		}
		for _, q := range []string{p + "/x", "x/" + p, p + "/", strings.TrimSuffix(p, "p"), "html/body/div/ul/li/#text/li"} {
			if q != p && n.HasPath(q) {
				t.Errorf("node at %q: HasPath(%q) = true", p, q)
			}
		}
		return true
	})
	if nodes < 10 {
		t.Fatalf("walked %d nodes", nodes)
	}
}
