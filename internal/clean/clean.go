// Package clean implements the pre-processing step of the ObjectRunner
// pipeline (paper §III): the JTidy-style repair of ill-formed HTML, then
// the removal of page segments that carry no extractable information —
// scripts, styles, comments, hidden nodes, form controls, empty elements
// — plus whitespace normalisation. Cleaning runs before visual
// segmentation and annotation, and makes wrapper inference both faster
// and less noisy.
//
// Every repair and drop rule is applied in one place, Events, a pull
// producer over the dom tokenizer. Page builds the cleaned tree from its
// events; the serving path's streaming tokenizer reads the same events
// without building a tree.
package clean

import (
	"strings"
	"unicode"

	"objectrunner/internal/dom"
)

// Page parses raw HTML into its cleaned tree. It never fails: malformed
// input yields the best-effort repaired tree. The root is a document
// node, and unless cleaning drops them, html and body elements are
// synthesized where the page lacks them: like the paper's running
// example templates, downstream code relies on that skeleton.
func Page(src string) *dom.Node {
	doc := &dom.Node{Type: dom.DocumentNode, Data: "#document"}
	var (
		evs  Events
		ev   Event
		html *dom.Node
	)
	evs.Reset(src)
	cur := doc
	for evs.Next(&ev) {
		switch ev.Kind {
		case OpenEvent:
			n := &dom.Node{Type: dom.ElementNode, Data: ev.Data}
			if len(ev.Attrs) > 0 {
				n.Attrs = append([]dom.Attr(nil), ev.Attrs...)
			}
			cur.AppendChild(n)
			cur = n
			if ev.FirstHTML {
				html = n
			}
		case CloseEvent:
			cur = cur.Parent
			if ev.Empty {
				// Nothing follows an element before it closes, so it is
				// its parent's last child.
				cur.Children = cur.Children[:len(cur.Children)-1]
			}
		case TextEvent:
			cur.AppendChild(dom.NewText(dom.CollapseSpace(ev.Data)))
		case DoctypeEvent:
			cur.AppendChild(&dom.Node{Type: dom.DoctypeNode, Data: ev.Data})
		}
	}

	// html/body synthesis. Without an <html> anywhere, one is made under
	// the document, holding everything but the doctypes, which stay in
	// front of it. The first <html> gets a <body> holding all its
	// children when no <body> started inside it. Both decisions read the
	// page before cleaning, so an <html> or <body> that cleaning dropped
	// still counts (an html dropped whole gets no body).
	if !evs.HTML() {
		html = dom.NewElement("html")
		kids := doc.Children
		doc.Children = nil
		for _, c := range kids {
			if c.Type == dom.DoctypeNode {
				doc.Children = append(doc.Children, c)
			} else {
				html.AppendChild(c)
			}
		}
		doc.AppendChild(html)
	}
	if html != nil && !evs.Body() {
		body := dom.NewElement("body")
		for _, c := range html.Children {
			body.AppendChild(c)
		}
		html.Children = nil
		html.AppendChild(body)
	}
	return doc
}

// EventKind discriminates the events of a cleaned page.
type EventKind uint8

const (
	// OpenEvent starts an element that survives cleaning.
	OpenEvent EventKind = iota
	// CloseEvent ends the innermost open element.
	CloseEvent
	// TextEvent is a text node that survives cleaning.
	TextEvent
	// DoctypeEvent is a doctype node; doctypes survive cleaning.
	DoctypeEvent
)

// Event is one step of a cleaned page, in document order. The Open and
// Close events nest: every Open is matched by a Close.
type Event struct {
	Kind EventKind
	// Empty marks a Close whose element kept no child and is not
	// content-bearing: the cleaned page does not have it.
	Empty bool
	// FirstHTML marks the Open of the document's first <html>, the one
	// html/body synthesis gives a <body>.
	FirstHTML bool
	// Data is the tag name of an Open or Close, a Text's text as the
	// tokenizer gives it (never whitespace only; Page collapses its
	// whitespace), or a Doctype's content.
	Data string
	// Attrs are an Open's attributes in source order. They are valid
	// only until the next call to Next.
	Attrs []dom.Attr
}

// frame is one open element of the repaired parse.
type frame struct {
	name    string
	dropped bool // the element or an ancestor is dropped whole
	kept    bool // a child survives cleaning
}

// Events produces the events of one cleaned page. It applies the parser
// repairs (implied end tags, void and self-closed elements, stray end
// tags), then the default cleaning (dropped tags, hidden elements,
// comments, whitespace-only text, and empty elements, which its Close
// events mark), and records what html/body synthesis needs. The zero
// value is ready for Reset; reused across pages, it allocates nothing
// per token.
type Events struct {
	z      dom.Tokenizer
	tok    dom.Token
	frames []frame // the open elements, dropped ones included
	until  int     // pop frames down to this depth before reading on
	open   bool    // the current start tag is still to be opened
	done   bool    // the tokenizer is exhausted
	html   bool
	body   bool
	htmlAt int // frame index of the first <html> while it is open; -1 before it, -2 after
}

// Reset starts the events of src, keeping the producer's buffers.
func (e *Events) Reset(src string) {
	*e = Events{z: *dom.NewTokenizer(src), tok: e.tok, frames: e.frames[:0], htmlAt: -1}
}

// HTML reports whether an <html> start tag has occurred, whether or not
// cleaning dropped it. Without one, html/body synthesis makes an html.
func (e *Events) HTML() bool { return e.html }

// Body reports whether a <body> start tag has occurred inside the first
// <html>, or anywhere while no <html> has started, whether or not
// cleaning dropped it. Without one, html/body synthesis gives the first
// html a body. It is final once that html closes.
func (e *Events) Body() bool { return e.body }

// Next writes the next event to *ev and reports whether there was one.
func (e *Events) Next(ev *Event) bool {
	for {
		if len(e.frames) > e.until {
			if e.pop(ev) {
				return true
			}
			continue
		}
		if e.open {
			e.open = false
			if e.push(ev) {
				return true
			}
			continue
		}
		if e.done {
			return false
		}
		if !e.z.NextInto(&e.tok) {
			e.done, e.until = true, 0
			continue
		}
		n := len(e.frames)
		switch data := e.tok.Data; e.tok.Type {
		case dom.TextToken, dom.DoctypeToken:
			if n > 0 && e.frames[n-1].dropped {
				continue
			}
			kind := DoctypeEvent
			if e.tok.Type == dom.TextToken {
				if blank(data) {
					continue
				}
				kind = TextEvent
			}
			if n > 0 {
				e.frames[n-1].kept = true
			}
			*ev = Event{Kind: kind, Data: data}
			return true
		case dom.StartTagToken, dom.SelfClosingToken:
			for n > 0 && closesImplicitly(data, e.frames[n-1].name) {
				n--
			}
			e.until, e.open = n, true
		case dom.EndTagToken:
			// A stray end tag closes down to the innermost open element
			// of its name, or is ignored. Void elements are never open.
			for i := n - 1; i >= 0; i-- {
				if e.frames[i].name == data {
					e.until = i
					break
				}
			}
		}
	}
}

// push opens the current start tag and reports whether that is an event.
func (e *Events) push(ev *Event) bool {
	name, attrs := e.tok.Data, e.tok.Attrs
	n := len(e.frames)
	dropped := n > 0 && e.frames[n-1].dropped || droppedTag(name) || hidden(attrs)
	first := false
	switch name {
	case "html":
		if !e.html {
			e.html, e.body, e.htmlAt = true, false, n
			first = !dropped
		}
	case "body":
		if e.htmlAt != -2 {
			e.body = true
		}
	}
	e.frames = append(e.frames, frame{name: name, dropped: dropped})
	e.until = len(e.frames)
	if e.tok.Type == dom.SelfClosingToken {
		// Self-closed and void elements take no children: the open is
		// followed at once by its close.
		e.until--
	}
	if dropped {
		return false
	}
	*ev = Event{Kind: OpenEvent, FirstHTML: first, Data: name, Attrs: attrs}
	return true
}

// pop closes the innermost open element and reports whether that is an
// event.
func (e *Events) pop(ev *Event) bool {
	n := len(e.frames) - 1
	f := e.frames[n]
	e.frames = e.frames[:n]
	if n == e.htmlAt {
		e.htmlAt = -2
	}
	if f.dropped {
		return false
	}
	empty := !f.kept && !contentBearing(f.name)
	if !empty && n > 0 {
		e.frames[n-1].kept = true
	}
	*ev = Event{Kind: CloseEvent, Empty: empty, Data: f.name}
	return true
}

// closesImplicitly reports whether a <next> start tag implies the end of
// an open <open> element: the HTML "implied end tags" for the elements
// that matter in data-rich pages (unclosed list items, paragraphs, table
// parts and options), and block-level tags closing an open <p>.
func closesImplicitly(next, open string) bool {
	switch next {
	case "li", "p", "option":
		return open == next
	case "dt", "dd":
		return open == "dt" || open == "dd"
	case "td", "th":
		return open == "td" || open == "th"
	case "tr":
		return open == "tr" || open == "td" || open == "th"
	case "thead":
		return open == "tr" || open == "td" || open == "th" || open == "tbody"
	case "tbody":
		return open == "tr" || open == "td" || open == "th" || open == "thead"
	case "tfoot":
		return open == "tr" || open == "td" || open == "th" || open == "tbody"
	case "optgroup":
		return open == "option" || open == "optgroup"
	case "address", "article", "aside", "blockquote", "div", "dl",
		"fieldset", "footer", "form", "h1", "h2", "h3", "h4", "h5", "h6",
		"header", "hr", "main", "nav", "ol", "pre", "section", "table", "ul":
		return open == "p"
	}
	return false
}

// droppedTag reports elements removed whole: scripts and embeds, styles,
// head furniture, and the form controls that belong to the page chrome
// rather than the data region.
func droppedTag(name string) bool {
	switch name {
	case "script", "noscript", "iframe", "object", "embed",
		"style",
		"head", "meta", "link", "base",
		"input", "select", "button", "option", "textarea":
		return true
	}
	return false
}

// hidden reports elements invisible under common idioms: a hidden
// attribute, type="hidden", or a style with display:none or
// visibility:hidden. Like dom.Node.Attr, only the first type and the
// first style attribute count.
func hidden(attrs []dom.Attr) bool {
	typeSeen, styleSeen := false, false
	for _, a := range attrs {
		switch {
		case AttrIs(a.Name, "hidden"):
			return true
		case !typeSeen && AttrIs(a.Name, "type"):
			typeSeen = true
			if strings.EqualFold(a.Value, "hidden") {
				return true
			}
		case !styleSeen && AttrIs(a.Name, "style"):
			styleSeen = true
			style := strings.ToLower(strings.ReplaceAll(a.Value, " ", ""))
			if strings.Contains(style, "display:none") || strings.Contains(style, "visibility:hidden") {
				return true
			}
		}
	}
	return false
}

// AttrIs reports whether a tokenized attribute name is want, a lower-case
// ASCII name, under Unicode case folding — the match dom.Node.Attr makes.
// The tokenizer lower-cases ASCII letters, so a name that matches without
// being equal holds a multi-byte rune that folds to an ASCII letter (ſ to
// s, K to k) and is longer than want.
func AttrIs(name, want string) bool {
	return name == want || len(name) > len(want) && strings.EqualFold(name, want)
}

// contentBearing reports elements kept even when they end up childless:
// images and line breaks, the html/body skeleton, and table cells, whose
// emptiness preserves the table's geometry.
func contentBearing(name string) bool {
	switch name {
	case "img", "br", "hr", "html", "body", "td", "th":
		return true
	}
	return false
}

// blank reports text with no words: whitespace only, as strings.Fields
// sees it.
func blank(s string) bool {
	return strings.IndexFunc(s, func(r rune) bool { return !unicode.IsSpace(r) }) < 0
}
