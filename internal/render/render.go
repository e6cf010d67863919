// Package render implements a heuristic box-model layout engine for DOM
// trees. ObjectRunner's pre-processing (paper §III) relies on VIPS-style
// visual segmentation, which requires approximate rectangles for page
// regions. The paper uses a full rendering engine; this package substitutes
// a lightweight flow layout that preserves the properties the segmentation
// heuristic depends on: block elements stack vertically, inline content
// flows and wraps, tables partition width among cells, and bigger subtrees
// get bigger rectangles.
package render

import (
	"objectrunner/internal/dom"
)

// Box is an axis-aligned rectangle in CSS-pixel coordinates, with the
// origin at the top-left of the viewport.
type Box struct {
	X, Y, W, H float64
}

// Area returns the rectangle's area.
func (b Box) Area() float64 { return b.W * b.H }

// CenterX returns the x coordinate of the rectangle's center.
func (b Box) CenterX() float64 { return b.X + b.W/2 }

// CenterY returns the y coordinate of the rectangle's center.
func (b Box) CenterY() float64 { return b.Y + b.H/2 }

// Contains reports whether b fully contains other.
func (b Box) Contains(other Box) bool {
	return other.X >= b.X && other.Y >= b.Y &&
		other.X+other.W <= b.X+b.W && other.Y+other.H <= b.Y+b.H
}

// Metrics are the constants of the heuristic layout.
type Metrics struct {
	ViewportWidth float64 // layout width of the page
	CharWidth     float64 // average glyph advance
	LineHeight    float64 // height of one text line
	BlockGap      float64 // vertical margin between sibling blocks
	ImageWidth    float64 // default <img> width
	ImageHeight   float64 // default <img> height
}

// DefaultMetrics returns the metrics used throughout the evaluation: a
// 1024px viewport with 8x16 text cells.
func DefaultMetrics() Metrics {
	return Metrics{
		ViewportWidth: 1024,
		CharWidth:     8,
		LineHeight:    16,
		BlockGap:      4,
		ImageWidth:    120,
		ImageHeight:   90,
	}
}

// Layout computes a rectangle for every element and text node under doc and
// returns the mapping. The document itself spans the full viewport width.
type Layout struct {
	Boxes   map[*dom.Node]Box
	Metrics Metrics
}

// Compute lays out the document with the given metrics.
func Compute(doc *dom.Node, m Metrics) *Layout {
	l := &Layout{Boxes: make(map[*dom.Node]Box, doc.CountNodes()), Metrics: m}
	h := l.layoutBlock(doc, 0, 0, m.ViewportWidth)
	l.Boxes[doc] = Box{X: 0, Y: 0, W: m.ViewportWidth, H: h}
	return l
}

// ComputeDefault lays out the document with DefaultMetrics.
func ComputeDefault(doc *dom.Node) *Layout {
	return Compute(doc, DefaultMetrics())
}

// Box returns the rectangle of n (zero Box when the node was not laid out,
// e.g. comments).
func (l *Layout) Box(n *dom.Node) Box { return l.Boxes[n] }

// inlineTags lists elements that participate in inline flow rather than
// establishing their own block.
var inlineTags = map[string]bool{
	"a": true, "abbr": true, "b": true, "bdi": true, "bdo": true,
	"cite": true, "code": true, "data": true, "dfn": true, "em": true,
	"i": true, "kbd": true, "label": true, "mark": true, "q": true,
	"s": true, "samp": true, "small": true, "span": true, "strong": true,
	"sub": true, "sup": true, "time": true, "u": true, "var": true,
	"img": true, "br": true, "wbr": true,
}

// IsInline reports whether the node flows inline in our box model.
func IsInline(n *dom.Node) bool {
	if n.Type == dom.TextNode {
		return true
	}
	return n.Type == dom.ElementNode && inlineTags[n.Data]
}

// layoutBlock lays out the children of n within [x, x+width) starting at
// vertical offset y, records boxes, and returns the total height consumed.
func (l *Layout) layoutBlock(n *dom.Node, x, y, width float64) float64 {
	if width <= 0 {
		width = l.Metrics.CharWidth
	}
	cursorY := y
	i := 0
	children := layoutChildren(n)
	for i < len(children) {
		c := children[i]
		if IsInline(c) {
			// Collect the maximal run of inline siblings into one flow.
			j := i
			for j < len(children) && IsInline(children[j]) {
				j++
			}
			h := l.layoutInlineRun(children[i:j], x, cursorY, width)
			cursorY += h
			i = j
			continue
		}
		h := l.layoutElement(c, x, cursorY, width)
		cursorY += h + l.Metrics.BlockGap
		i++
	}
	if cursorY > y {
		// Remove the trailing gap so empty containers have zero height.
		if i > 0 && !IsInline(children[len(children)-1]) {
			cursorY -= l.Metrics.BlockGap
		}
	}
	return cursorY - y
}

// layoutChildren filters out nodes that occupy no space.
func layoutChildren(n *dom.Node) []*dom.Node {
	out := make([]*dom.Node, 0, len(n.Children))
	for _, c := range n.Children {
		switch c.Type {
		case dom.CommentNode, dom.DoctypeNode:
			continue
		case dom.TextNode:
			if dom.CollapseSpace(c.Data) == "" {
				continue
			}
		}
		out = append(out, c)
	}
	return out
}

// layoutElement lays out a block-level element and returns its height.
func (l *Layout) layoutElement(n *dom.Node, x, y, width float64) float64 {
	var h float64
	switch n.Data {
	case "table":
		h = l.layoutTable(n, x, y, width)
	case "tr":
		h = l.layoutRow(n, x, y, width)
	default:
		h = l.layoutBlock(n, x, y, width)
	}
	if h == 0 && n.Type == dom.ElementNode {
		// Empty blocks still occupy a thin strip (e.g. <hr>).
		if n.Data == "hr" || n.Data == "br" {
			h = l.Metrics.LineHeight / 2
		}
	}
	l.Boxes[n] = Box{X: x, Y: y, W: width, H: h}
	return h
}

// layoutTable stacks rows; non-row children (caption, thead wrapper
// contents) are treated as blocks.
func (l *Layout) layoutTable(n *dom.Node, x, y, width float64) float64 {
	cursorY := y
	for _, c := range layoutChildren(n) {
		if c.Type != dom.ElementNode {
			h := l.layoutInlineRun([]*dom.Node{c}, x, cursorY, width)
			cursorY += h
			continue
		}
		switch c.Data {
		case "tr":
			cursorY += l.layoutRow(c, x, cursorY, width)
		case "thead", "tbody", "tfoot":
			h := l.layoutTable(c, x, cursorY, width)
			l.Boxes[c] = Box{X: x, Y: cursorY, W: width, H: h}
			cursorY += h
		default:
			cursorY += l.layoutElement(c, x, cursorY, width)
		}
	}
	return cursorY - y
}

// layoutRow splits the width equally among the row's cells.
func (l *Layout) layoutRow(n *dom.Node, x, y, width float64) float64 {
	var cells []*dom.Node
	for _, c := range layoutChildren(n) {
		if c.Type == dom.ElementNode && (c.Data == "td" || c.Data == "th") {
			cells = append(cells, c)
		}
	}
	if len(cells) == 0 {
		h := l.layoutBlock(n, x, y, width)
		l.Boxes[n] = Box{X: x, Y: y, W: width, H: h}
		return h
	}
	cellW := width / float64(len(cells))
	maxH := 0.0
	for i, cell := range cells {
		cx := x + float64(i)*cellW
		h := l.layoutBlock(cell, cx, y, cellW)
		if h < l.Metrics.LineHeight {
			h = l.Metrics.LineHeight
		}
		l.Boxes[cell] = Box{X: cx, Y: y, W: cellW, H: h}
		if h > maxH {
			maxH = h
		}
	}
	l.Boxes[n] = Box{X: x, Y: y, W: width, H: maxH}
	return maxH
}

// layoutInlineRun flows a run of inline nodes into lines of the given width
// and returns the height consumed. Each inline node is assigned the
// bounding box of its glyph run (possibly spanning lines, approximated as
// the rectangle from its first to last line).
func (l *Layout) layoutInlineRun(run []*dom.Node, x, y, width float64) float64 {
	flow := &inlineFlow{l: l, left: x, width: width, y: y, lineH: l.Metrics.LineHeight}
	for _, n := range run {
		flow.place(n)
	}
	return flow.height()
}

type inlineFlow struct {
	l       *Layout
	left    float64
	width   float64
	y       float64
	x       float64 // offset within the current line
	lines   float64 // completed lines
	lineH   float64
	anyText bool
}

func (f *inlineFlow) height() float64 {
	if f.x > 0 || f.anyText {
		return (f.lines + 1) * f.lineH
	}
	return f.lines * f.lineH
}

// place assigns a box to n covering its flowed extent.
func (f *inlineFlow) place(n *dom.Node) {
	startLine, startX := f.lines, f.x
	switch {
	case n.Type == dom.TextNode:
		// The collapsed text's length, without collapsing it.
		words, bytes := dom.FieldStats(n.Data)
		f.advance(float64(max(bytes+words-1, 0)) * f.l.Metrics.CharWidth)
		f.anyText = true
	case n.IsElement("br"):
		f.lines++
		f.x = 0
	case n.IsElement("img"):
		f.advance(f.l.Metrics.ImageWidth)
		f.anyText = true
	default:
		for _, c := range layoutChildren(n) {
			f.place(c)
		}
	}
	f.l.Boxes[n] = f.boxBetween(startLine, startX)
}

// advance moves the cursor by w pixels, wrapping lines as needed.
func (f *inlineFlow) advance(w float64) {
	for w > 0 {
		remaining := f.width - f.x
		if w <= remaining {
			f.x += w
			return
		}
		w -= remaining
		f.lines++
		f.x = 0
		if f.width <= 0 {
			return
		}
	}
}

// boxBetween returns the rectangle covering the flow from (startLine,
// startX) to the current cursor.
func (f *inlineFlow) boxBetween(startLine, startX float64) Box {
	y0 := f.y + startLine*f.lineH
	if f.lines == startLine {
		return Box{X: f.left + startX, Y: y0, W: f.x - startX, H: f.lineH}
	}
	// Spans multiple lines: bounding box is full width.
	h := (f.lines - startLine + 1) * f.lineH
	return Box{X: f.left, Y: y0, W: f.width, H: h}
}
