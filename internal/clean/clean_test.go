package clean

import (
	"strings"
	"testing"

	"objectrunner/internal/dom"
)

func TestCleanDropsScriptsStylesComments(t *testing.T) {
	doc := Page(`<html><head><style>.x{}</style></head><body>
		<script>var a=1;</script>
		<!-- comment -->
		<div>keep</div>
		<noscript>ns</noscript>
	</body></html>`)
	for _, tag := range []string{"script", "style", "noscript", "head"} {
		if doc.FindOne(tag) != nil {
			t.Errorf("%s survived cleaning", tag)
		}
	}
	var comments int
	doc.Walk(func(n *dom.Node) bool {
		if n.Type == dom.CommentNode {
			comments++
		}
		return true
	})
	if comments != 0 {
		t.Error("comment survived cleaning")
	}
	if doc.FindOne("div") == nil {
		t.Error("content div was lost")
	}
}

func TestCleanDropsHidden(t *testing.T) {
	doc := Page(`<body>
		<div style="display: none">hidden1</div>
		<div style="visibility:hidden">hidden2</div>
		<div hidden>hidden3</div>
		<div>visible</div>
	</body>`)
	divs := doc.Find("div")
	if len(divs) != 1 {
		t.Fatalf("got %d divs, want 1 (only visible)", len(divs))
	}
	if divs[0].Text() != "visible" {
		t.Errorf("wrong div survived: %q", divs[0].Text())
	}
}

func TestCleanDropsForms(t *testing.T) {
	doc := Page(`<body><form><input type="text"><select><option>a</option></select><button>go</button></form><div>data</div></body>`)
	for _, tag := range []string{"input", "select", "option", "button"} {
		if doc.FindOne(tag) != nil {
			t.Errorf("%s survived cleaning", tag)
		}
	}
}

func TestCleanDropsEmptyRecursively(t *testing.T) {
	doc := Page(`<body><div><span><em></em></span></div><p>keep</p></body>`)
	// em is empty -> span becomes empty -> div becomes empty.
	if doc.FindOne("div") != nil || doc.FindOne("span") != nil || doc.FindOne("em") != nil {
		t.Error("empty chain not pruned")
	}
	if doc.FindOne("p") == nil {
		t.Error("non-empty p pruned")
	}
}

func TestCleanKeepsImagesAndCells(t *testing.T) {
	doc := Page(`<body><table><tr><td></td><td>x</td></tr></table><img src="a.png"></body>`)
	if got := len(doc.Find("td")); got != 2 {
		t.Errorf("got %d td, want 2 (empty cells keep geometry)", got)
	}
	if doc.FindOne("img") == nil {
		t.Error("img pruned")
	}
}

func TestCleanNormalizesSpace(t *testing.T) {
	doc := Page("<body><div>  a  \n\t b  </div>\n\n<div>c</div></body>")
	divs := doc.Find("div")
	if len(divs) != 2 {
		t.Fatalf("got %d divs", len(divs))
	}
	if divs[0].OwnText() != "a b" {
		t.Errorf("text = %q", divs[0].OwnText())
	}
	// Whitespace-only text nodes between divs must be gone.
	body := doc.FindOne("body")
	for _, c := range body.Children {
		if c.Type == dom.TextNode {
			t.Errorf("whitespace text node survived: %q", c.Data)
		}
	}
}

func TestCleanRealisticPage(t *testing.T) {
	src := `<!DOCTYPE html><html><head><title>Concerts</title>
	<meta charset="utf-8"><link rel="stylesheet" href="s.css">
	<script src="app.js"></script></head>
	<body>
	<div id="header"><img src="logo.png"><input type="search"></div>
	<ul id="events">
	  <li><div>Coldplay</div><div>Saturday August 8, 2010 8:00pm</div></li>
	  <li><div>Muse</div><div>Friday June 19 7:00p</div></li>
	</ul>
	<div id="footer"><!-- tracking --><script>track()</script></div>
	</body></html>`
	doc := Page(src)
	if got := len(doc.Find("li")); got != 2 {
		t.Errorf("got %d li, want 2", got)
	}
	if !strings.Contains(doc.OuterHTML(), "Coldplay") {
		t.Error("record content lost")
	}
	if strings.Contains(doc.OuterHTML(), "track()") {
		t.Error("script content survived")
	}
}

// FuzzCleanPage holds Page to a well-formed cleaned tree on any input: it
// never panics, the root is a document, every node is its children's
// Parent, and nothing that cleaning removes survives — no comment, no
// dropped-tag or hidden element, no empty or uncollapsed text, no
// childless element that is not content-bearing.
func FuzzCleanPage(f *testing.F) {
	for _, src := range []string{
		``,
		`<html/>0`,
		`<!DOCTYPE html><html><head><title>T</title></head><body><div class="a">x</div></body></html>`,
		`<ul><li>one<li>two</ul><table><tr><td>a<td>b<tr><td></table>`,
		`<p>para<div>block</div><p>again</span></div>`,
		`<div hidden><html>x</html></div><p>y</p>`,
		`<body><div><span><em></em></span></div><!-- c --><img src=a.png><br/></body>`,
		`<div style="display: none">h</div><input type="hidden"><select><option>a</select>`,
		"<div>  a \n\t b  </div>&amp; &#65; &nbsp; <script>x<y</script>",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc := Page(src)
		if doc.Type != dom.DocumentNode || doc.Parent != nil {
			t.Fatalf("root is %v with parent %v, want a parentless document", doc.Type, doc.Parent)
		}
		doc.Walk(func(n *dom.Node) bool {
			for _, c := range n.Children {
				if c.Parent != n {
					t.Errorf("%s child %q: wrong Parent", n.Path(), c.Data)
				}
			}
			switch n.Type {
			case dom.CommentNode:
				t.Errorf("comment %q survived", n.Data)
			case dom.TextNode:
				if n.Data == "" || n.Data != strings.Join(strings.Fields(n.Data), " ") {
					t.Errorf("text %q at %s is empty or not collapsed", n.Data, n.Path())
				}
			case dom.ElementNode:
				if droppedTag(n.Data) || hidden(n.Attrs) {
					t.Errorf("%s survived cleaning", n.Path())
				}
				if len(n.Children) == 0 && !contentBearing(n.Data) {
					t.Errorf("empty %s survived cleaning", n.Path())
				}
			}
			return true
		})
	})
}
