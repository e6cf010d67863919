package render

import (
	"testing"

	"objectrunner/internal/clean"
	"objectrunner/internal/dom"
)

func layoutOf(t *testing.T, src string) (*dom.Node, *Layout) {
	t.Helper()
	doc := clean.Page(src)
	return doc, ComputeDefault(doc)
}

func TestBlocksStackVertically(t *testing.T) {
	doc, l := layoutOf(t, `<body><div>first</div><div>second</div></body>`)
	divs := doc.Find("div")
	if len(divs) != 2 {
		t.Fatal("need 2 divs")
	}
	a, b := l.Box(divs[0]), l.Box(divs[1])
	if b.Y <= a.Y {
		t.Errorf("second div (y=%v) should be below first (y=%v)", b.Y, a.Y)
	}
	if a.W != DefaultMetrics().ViewportWidth {
		t.Errorf("block width = %v, want viewport width", a.W)
	}
}

func TestInlineFlowsHorizontally(t *testing.T) {
	doc, l := layoutOf(t, `<body><div><span>aaa</span><span>bbb</span></div></body>`)
	spans := doc.Find("span")
	a, b := l.Box(spans[0]), l.Box(spans[1])
	if a.Y != b.Y {
		t.Errorf("inline siblings on different lines: %v vs %v", a.Y, b.Y)
	}
	if b.X <= a.X {
		t.Errorf("second span should be to the right: %v vs %v", b.X, a.X)
	}
}

func TestTextWraps(t *testing.T) {
	long := ""
	for i := 0; i < 300; i++ {
		long += "x"
	}
	doc, l := layoutOf(t, `<body><div>`+long+`</div></body>`)
	div := doc.FindOne("div")
	b := l.Box(div)
	m := DefaultMetrics()
	// 300 chars * 8px = 2400px over a 1024px viewport needs 3 lines.
	if b.H < 3*m.LineHeight {
		t.Errorf("height = %v, want >= %v (wrapped)", b.H, 3*m.LineHeight)
	}
}

func TestTableCellsShareWidth(t *testing.T) {
	doc, l := layoutOf(t, `<body><table><tr><td>a</td><td>b</td><td>c</td><td>d</td></tr></table></body>`)
	tds := doc.Find("td")
	if len(tds) != 4 {
		t.Fatal("need 4 cells")
	}
	w := DefaultMetrics().ViewportWidth / 4
	for i, td := range tds {
		b := l.Box(td)
		if b.W != w {
			t.Errorf("cell %d width = %v, want %v", i, b.W, w)
		}
		if b.X != float64(i)*w {
			t.Errorf("cell %d x = %v, want %v", i, b.X, float64(i)*w)
		}
	}
}

func TestTableRowsStack(t *testing.T) {
	doc, l := layoutOf(t, `<body><table><tr><td>a</td></tr><tr><td>b</td></tr></table></body>`)
	trs := doc.Find("tr")
	if l.Box(trs[1]).Y <= l.Box(trs[0]).Y {
		t.Error("rows did not stack")
	}
}

func TestBiggerSubtreeBiggerBox(t *testing.T) {
	doc, l := layoutOf(t, `<body>
		<div id="small">one line</div>
		<div id="big"><p>l1</p><p>l2</p><p>l3</p><p>l4</p></div>
	</body>`)
	var small, big Box
	for _, d := range doc.Find("div") {
		switch d.AttrOr("id", "") {
		case "small":
			small = l.Box(d)
		case "big":
			big = l.Box(d)
		}
	}
	if big.Area() <= small.Area() {
		t.Errorf("big area %v should exceed small %v", big.Area(), small.Area())
	}
}

func TestChildContainedInParent(t *testing.T) {
	doc, l := layoutOf(t, `<body><div><p>para one</p><p>para two</p><ul><li>x</li><li>y</li></ul></div></body>`)
	doc.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode || n.Parent == nil || n.Parent.Type != dom.ElementNode {
			return true
		}
		pb, ok := l.Boxes[n.Parent]
		if !ok {
			return true
		}
		cb := l.Box(n)
		// Allow tiny numerical slack.
		if cb.Y < pb.Y-0.01 || cb.Y+cb.H > pb.Y+pb.H+0.01 {
			t.Errorf("%s box %+v escapes parent %s box %+v vertically", n.Data, cb, n.Parent.Data, pb)
		}
		return true
	})
}

func TestBrBreaksLine(t *testing.T) {
	doc, l := layoutOf(t, `<body><div><span>a</span><br><span>b</span></div></body>`)
	spans := doc.Find("span")
	a, b := l.Box(spans[0]), l.Box(spans[1])
	if b.Y <= a.Y {
		t.Error("br did not break the line")
	}
}

func TestImgOccupiesSpace(t *testing.T) {
	doc, l := layoutOf(t, `<body><div><img src="x.png"></div></body>`)
	img := doc.FindOne("img")
	if l.Box(img).W != DefaultMetrics().ImageWidth {
		t.Errorf("img width = %v", l.Box(img).W)
	}
}

func TestBoxHelpers(t *testing.T) {
	b := Box{X: 10, Y: 20, W: 100, H: 50}
	if b.Area() != 5000 {
		t.Errorf("Area = %v", b.Area())
	}
	if b.CenterX() != 60 || b.CenterY() != 45 {
		t.Errorf("center = (%v,%v)", b.CenterX(), b.CenterY())
	}
	inner := Box{X: 20, Y: 25, W: 10, H: 10}
	if !b.Contains(inner) {
		t.Error("Contains(inner) = false")
	}
	outer := Box{X: 0, Y: 0, W: 500, H: 500}
	if b.Contains(outer) {
		t.Error("Contains(outer) = true")
	}
}

func TestDocumentBoxCoversContent(t *testing.T) {
	doc, l := layoutOf(t, `<body><div>a</div><div>b</div><div>c</div></body>`)
	db := l.Box(doc)
	for _, d := range doc.Find("div") {
		if !db.Contains(l.Box(d)) {
			t.Errorf("document box %+v does not contain div box %+v", db, l.Box(d))
		}
	}
}

func TestEmptyDocument(t *testing.T) {
	doc := clean.Page("")
	l := ComputeDefault(doc)
	if l.Box(doc).W != DefaultMetrics().ViewportWidth {
		t.Error("empty document missing viewport box")
	}
}
