// Package dom implements a from-scratch HTML document object model: the
// node tree, an HTML tokenizer and a serializer. It depends only on the
// standard library. Trees are built from raw HTML by package clean, which
// repairs the malformation classes that dominate real template-generated
// pages (unclosed <li>/<p>/<td>, stray end tags) while it cleans them.
//
// The model is deliberately small: a Node is either an element, a text
// chunk, a comment, or a doctype, and carries an ordered child list.
package dom

import (
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// NodeType discriminates the kinds of DOM nodes.
type NodeType int

const (
	// ElementNode is an HTML element such as <div>.
	ElementNode NodeType = iota
	// TextNode is a run of character data.
	TextNode
	// CommentNode is an HTML comment.
	CommentNode
	// DoctypeNode is a <!DOCTYPE ...> declaration.
	DoctypeNode
	// DocumentNode is the synthetic root of a parsed page.
	DocumentNode
)

// String returns a short human-readable name for the node type.
func (t NodeType) String() string {
	switch t {
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case DoctypeNode:
		return "doctype"
	case DocumentNode:
		return "document"
	}
	return "unknown"
}

// Attr is a single name/value attribute pair on an element.
type Attr struct {
	Name  string
	Value string
}

// Node is a single node of the DOM tree. Element nodes use Data for the
// (lower-cased) tag name; text and comment nodes use Data for their
// content.
type Node struct {
	Type     NodeType
	Data     string
	Attrs    []Attr
	Parent   *Node
	Children []*Node
}

// NewElement returns a detached element node with the given tag name.
func NewElement(tag string, attrs ...Attr) *Node {
	return &Node{Type: ElementNode, Data: strings.ToLower(tag), Attrs: attrs}
}

// NewText returns a detached text node.
func NewText(text string) *Node {
	return &Node{Type: TextNode, Data: text}
}

// AppendChild attaches child as the last child of n, reparenting it.
func (n *Node) AppendChild(child *Node) {
	child.Parent = n
	n.Children = append(n.Children, child)
}

// RemoveChild detaches child from n. It is a no-op when child is not a
// direct child of n.
func (n *Node) RemoveChild(child *Node) {
	for i, c := range n.Children {
		if c == child {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			child.Parent = nil
			return
		}
	}
}

// Attr returns the value of the named attribute and whether it is present.
// Attribute names are matched case-insensitively.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if strings.EqualFold(a.Name, name) {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the value of the named attribute, or def when absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// SetAttr sets (or replaces) the named attribute.
func (n *Node) SetAttr(name, value string) {
	for i, a := range n.Attrs {
		if strings.EqualFold(a.Name, name) {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// DelAttr removes the named attribute if present.
func (n *Node) DelAttr(name string) {
	for i, a := range n.Attrs {
		if strings.EqualFold(a.Name, name) {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return
		}
	}
}

// IsElement reports whether n is an element with the given tag name.
func (n *Node) IsElement(tag string) bool {
	return n.Type == ElementNode && n.Data == tag
}

// Text returns the concatenation of all descendant text nodes, with runs of
// whitespace collapsed to single spaces and the result trimmed.
func (n *Node) Text() string {
	var sb strings.Builder
	n.appendText(&sb)
	return CollapseSpace(sb.String())
}

func (n *Node) appendText(sb *strings.Builder) {
	if n.Type == TextNode {
		sb.WriteString(n.Data)
		sb.WriteByte(' ')
		return
	}
	for _, c := range n.Children {
		c.appendText(sb)
	}
}

// OwnText returns the concatenation of the direct text children of n only.
func (n *Node) OwnText() string {
	var sb strings.Builder
	for _, c := range n.Children {
		if c.Type == TextNode {
			sb.WriteString(c.Data)
			sb.WriteByte(' ')
		}
	}
	return CollapseSpace(sb.String())
}

// CollapseSpace collapses consecutive whitespace into single spaces and
// trims the ends. Text that is already collapsed — most text of a
// generated page — is returned as is, without allocating.
func CollapseSpace(s string) string {
	space := true // at the start, or after a space
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
		}
		if unicode.IsSpace(r) {
			if r != ' ' || space {
				return strings.Join(strings.Fields(s), " ")
			}
			space = true
		} else {
			space = false
		}
		i += size
	}
	if space && s != "" {
		return strings.Join(strings.Fields(s), " ")
	}
	return s
}

// Path returns the slash-separated tag path from the document root to n,
// e.g. "html/body/div/span". Text nodes contribute the pseudo-tag "#text".
func (n *Node) Path() string {
	var parts []string
	for cur := n; cur != nil && cur.Type != DocumentNode; cur = cur.Parent {
		switch cur.Type {
		case ElementNode:
			parts = append(parts, cur.Data)
		case TextNode:
			parts = append(parts, "#text")
		case CommentNode:
			parts = append(parts, "#comment")
		case DoctypeNode:
			parts = append(parts, "#doctype")
		}
	}
	// Reverse into root-first order.
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}

// IndexPath returns the path from root to n as child indexes, which
// uniquely identifies the node position within its document.
func (n *Node) IndexPath() []int {
	var idx []int
	for cur := n; cur.Parent != nil; cur = cur.Parent {
		pos := 0
		for i, c := range cur.Parent.Children {
			if c == cur {
				pos = i
				break
			}
		}
		idx = append(idx, pos)
	}
	for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx
}

// Depth returns the number of ancestors of n.
func (n *Node) Depth() int {
	d := 0
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		d++
	}
	return d
}

// Root returns the topmost ancestor of n (the document node for parsed
// pages).
func (n *Node) Root() *Node {
	cur := n
	for cur.Parent != nil {
		cur = cur.Parent
	}
	return cur
}

// Walk calls fn for n and every descendant in document order. Returning
// false from fn prunes the walk below that node.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Find returns all descendant elements (including n itself) with the given
// tag name, in document order.
func (n *Node) Find(tag string) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if m.IsElement(tag) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// FindOne returns the first descendant element with the given tag name, or
// nil when none exists.
func (n *Node) FindOne(tag string) *Node {
	var found *Node
	n.Walk(func(m *Node) bool {
		if found != nil {
			return false
		}
		if m.IsElement(tag) {
			found = m
			return false
		}
		return true
	})
	return found
}

// TextNodes returns all descendant text nodes in document order.
func (n *Node) TextNodes() []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if m.Type == TextNode {
			out = append(out, m)
		}
		return true
	})
	return out
}

// Clone returns a deep copy of the subtree rooted at n. The copy is
// detached (its Parent is nil).
func (n *Node) Clone() *Node {
	cp := &Node{Type: n.Type, Data: n.Data}
	if len(n.Attrs) > 0 {
		cp.Attrs = make([]Attr, len(n.Attrs))
		copy(cp.Attrs, n.Attrs)
	}
	for _, c := range n.Children {
		cc := c.Clone()
		cc.Parent = cp
		cp.Children = append(cp.Children, cc)
	}
	return cp
}

// CountNodes returns the number of nodes in the subtree rooted at n.
func (n *Node) CountNodes() int {
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	return count
}

// AttrSignature returns a stable signature of the element's attribute
// names and values (sorted by name), used to re-identify structurally
// equivalent blocks across pages of a source.
func (n *Node) AttrSignature() string {
	if len(n.Attrs) == 0 {
		return ""
	}
	pairs := make([]string, 0, len(n.Attrs))
	for _, a := range n.Attrs {
		pairs = append(pairs, strings.ToLower(a.Name)+"="+a.Value)
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ";")
}
