package segment

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"objectrunner/internal/clean"
	"objectrunner/internal/dom"
	"objectrunner/internal/render"
)

// pageWithChrome builds a realistic page: header, sidebar-ish nav, a main
// content region with n records, and a footer.
func pageWithChrome(n int) string {
	var sb strings.Builder
	sb.WriteString(`<html><body>`)
	sb.WriteString(`<div id="header"><span>My Site</span></div>`)
	sb.WriteString(`<div id="nav"><span>home</span><span>about</span></div>`)
	sb.WriteString(`<div id="main"><ul>`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<li><div>Artist %d performing live tonight</div><div>Saturday May %d, 8:00pm at the Grand Hall downtown</div></li>`, i, i+1)
	}
	sb.WriteString(`</ul></div>`)
	sb.WriteString(`<div id="footer"><span>contact</span></div>`)
	sb.WriteString(`</body></html>`)
	return sb.String()
}

func TestBuildTree(t *testing.T) {
	doc := clean.Page(pageWithChrome(3))
	l := render.ComputeDefault(doc)
	tree := BuildTree(doc, l)
	if tree.Node.Data != "body" {
		t.Errorf("root = %s, want body", tree.Node.Data)
	}
	if len(tree.Children) != 4 {
		t.Errorf("body has %d child blocks, want 4 (header/nav/main/footer)", len(tree.Children))
	}
	// The main div's child block is the ul; lis nest below it.
	var mainBlk *Block
	for _, c := range tree.Children {
		if c.Node.AttrOr("id", "") == "main" {
			mainBlk = c
		}
	}
	if mainBlk == nil {
		t.Fatal("main block missing")
	}
	if len(mainBlk.Children) != 1 || mainBlk.Children[0].Node.Data != "ul" {
		t.Fatal("ul not a child block of main")
	}
	if got := len(mainBlk.Children[0].Children); got != 3 {
		t.Errorf("ul has %d li blocks, want 3", got)
	}
}

func TestInlineWrappersTransparent(t *testing.T) {
	doc := clean.Page(`<body><span><div>inner</div></span></body>`)
	l := render.ComputeDefault(doc)
	tree := BuildTree(doc, l)
	if len(tree.Children) != 1 || tree.Children[0].Node.Data != "div" {
		t.Error("div inside inline span should be a direct child block of body")
	}
}

func TestMainBlockPicksContentRegion(t *testing.T) {
	doc := clean.Page(pageWithChrome(8))
	main := MainBlock(doc, DefaultOptions())
	// The selection must land inside (or at) the #main region.
	for cur := main; cur != nil; cur = cur.Parent {
		if cur.AttrOr("id", "") == "main" {
			return
		}
	}
	// Or main itself contains the records.
	if len(main.Find("li")) >= 8 {
		return
	}
	t.Errorf("main block = %s#%s %q...", main.Data, main.AttrOr("id", ""), truncate(main.Text(), 40))
}

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

func TestMainBlockExcludesChrome(t *testing.T) {
	doc := clean.Page(pageWithChrome(8))
	main := MainBlock(doc, DefaultOptions())
	text := main.Text()
	if strings.Contains(text, "My Site") || strings.Contains(text, "contact") {
		t.Errorf("main block includes chrome text: %q", truncate(text, 60))
	}
}

func TestMainBlockEmptyPage(t *testing.T) {
	doc := clean.Page(`<html><body></body></html>`)
	main := MainBlock(doc, DefaultOptions())
	if main == nil {
		t.Fatal("nil main block on empty page")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	doc := clean.Page(pageWithChrome(5))
	main := MainBlock(doc, DefaultOptions())
	k := KeyOf(main)
	if got := FindByKey(doc, k); got != main {
		t.Errorf("FindByKey did not return the same node: %v vs %v", got, main)
	}
}

func TestFindByKeyAcrossPages(t *testing.T) {
	p1 := clean.Page(pageWithChrome(3))
	p2 := clean.Page(pageWithChrome(9))
	k := KeyOf(MainBlock(p1, DefaultOptions()))
	got := FindByKey(p2, k)
	if got == nil {
		t.Fatal("key not found on second page")
	}
	if got.Data != k.Tag {
		t.Errorf("matched tag %s, want %s", got.Data, k.Tag)
	}
}

func TestFindByKeyMissing(t *testing.T) {
	doc := clean.Page(`<body><div>x</div></body>`)
	if got := FindByKey(doc, Key{Tag: "table", Path: "html/body/table"}); got != nil {
		t.Errorf("found %v for absent key", got)
	}
}

func TestSelectMainVotes(t *testing.T) {
	pages := []*dom.Node{
		clean.Page(pageWithChrome(4)),
		clean.Page(pageWithChrome(6)),
		clean.Page(pageWithChrome(5)),
	}
	mains, err := SelectMainCtx(context.Background(), pages, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) != 3 {
		t.Fatalf("got %d mains", len(mains))
	}
	// All selected blocks should share the same key (consistent region).
	k := KeyOf(mains[0])
	for i, m := range mains {
		if m == nil {
			t.Fatalf("page %d main is nil", i)
		}
		if KeyOf(m) != k {
			t.Errorf("page %d selected different block: %+v vs %+v", i, KeyOf(m), k)
		}
	}
}

func TestSelectMainEmpty(t *testing.T) {
	if got, err := SelectMainCtx(context.Background(), nil, DefaultOptions(), nil); got != nil || err != nil {
		t.Errorf("SelectMainCtx(nil) = %v, %v; want nil, nil", got, err)
	}
}

func TestBlockCount(t *testing.T) {
	doc := clean.Page(`<body><div><p>a</p><p>b</p></div></body>`)
	l := render.ComputeDefault(doc)
	tree := BuildTree(doc, l)
	// body + div + 2 p = 4
	if got := tree.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
}
