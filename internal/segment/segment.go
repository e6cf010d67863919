// Package segment implements VIPS-style visual page segmentation and the
// "central segment" selection heuristic of ObjectRunner's pre-processing
// (paper §III). Pages are divided into a tree of visual blocks using the
// DOM structure and the rectangles produced by the render package; the
// best candidate segment is the largest, most central rectangle, and it is
// re-identified across the pages of a source by tag name, DOM path and
// attribute signature.
package segment

import (
	"context"

	"objectrunner/internal/dom"
	"objectrunner/internal/obs"
	"objectrunner/internal/parallel"
	"objectrunner/internal/render"
)

// Block is a node of the visual block tree. Each block wraps a DOM element
// together with its layout rectangle.
type Block struct {
	Node     *dom.Node
	Box      render.Box
	Children []*Block

	// textLen is len(Node.Text()), summed from word counts while the
	// tree is built (see textSize).
	textLen int
}

// TextLen returns the length of the text contained in the block:
// len(b.Node.Text()), computed once by BuildTree.
func (b *Block) TextLen() int { return b.textLen }

// textSize is the collapsed text of a subtree by its word count and the
// bytes of its words: Node.Text joins the words with single spaces, so
// its length follows without building the string, and one pass over the
// tree sizes every block — no candidate rebuilds its text, and no
// ancestor re-reads what its children read.
type textSize struct{ words, bytes int }

func (t *textSize) add(u textSize) { t.words += u.words; t.bytes += u.bytes }

// len returns the length of the collapsed text.
func (t textSize) len() int {
	if t.words == 0 {
		return 0
	}
	return t.bytes + t.words - 1
}

// Walk visits b and its descendants pre-order; returning false prunes.
func (b *Block) Walk(fn func(*Block) bool) {
	if !fn(b) {
		return
	}
	for _, c := range b.Children {
		c.Walk(fn)
	}
}

// Count returns the number of blocks in the tree rooted at b.
func (b *Block) Count() int {
	n := 0
	b.Walk(func(*Block) bool { n++; return true })
	return n
}

// BuildTree constructs the visual block tree for a laid-out page. A block
// is a non-inline element; inline wrappers are skipped transparently, so a
// block's children are the nearest block-level descendants.
func BuildTree(doc *dom.Node, l *render.Layout) *Block {
	body := doc.FindOne("body")
	if body == nil {
		body = doc
	}
	root := &Block{Node: body, Box: l.Box(body)}
	root.textLen = collectChildBlocks(body, l, root).len()
	return root
}

// collectChildBlocks appends the blocks under n to parent and returns
// the text size of n's subtree.
func collectChildBlocks(n *dom.Node, l *render.Layout, parent *Block) textSize {
	var t textSize
	for _, c := range n.Children {
		switch {
		case c.Type == dom.TextNode:
			words, bytes := dom.FieldStats(c.Data)
			t.add(textSize{words, bytes})
		case c.Type != dom.ElementNode:
		case render.IsInline(c):
			// Inline wrappers are transparent for block structure.
			t.add(collectChildBlocks(c, l, parent))
		default:
			b := &Block{Node: c, Box: l.Box(c)}
			parent.Children = append(parent.Children, b)
			ct := collectChildBlocks(c, l, b)
			b.textLen = ct.len()
			t.add(ct)
		}
	}
	return t
}

// Options tunes the main-block selection heuristic.
type Options struct {
	// DescendThreshold is the minimum share of the parent's score a child
	// must hold for the selection to zoom into it.
	DescendThreshold float64
	// MinTextShare is the minimum share of the page's text a candidate
	// must retain; descending below it stops.
	MinTextShare float64
	// Workers bounds the worker pool computing per-page main blocks in
	// SelectMain; 0 means one worker per CPU. The key vote and its
	// events stay in input order, so the selection is unaffected.
	Workers int
}

// DefaultOptions returns the thresholds used in the evaluation.
func DefaultOptions() Options {
	return Options{DescendThreshold: 0.5, MinTextShare: 0.5}
}

// MainBlock selects the page's central content segment: starting from the
// body, the selection repeatedly descends into the child block with the
// largest, most central rectangle, as long as that child dominates its
// siblings and retains most of the page's text. The returned element is
// the root of the main data region.
func MainBlock(doc *dom.Node, opts Options) *dom.Node {
	l := render.ComputeDefault(doc)
	tree := BuildTree(doc, l)
	pageW := l.Metrics.ViewportWidth
	totalText := tree.TextLen()
	if totalText == 0 {
		return tree.Node
	}

	cur := tree
	for len(cur.Children) > 0 {
		best, bestScore, sum := (*Block)(nil), 0.0, 0.0
		for _, c := range cur.Children {
			s := blockScore(c, pageW)
			sum += s
			if s > bestScore {
				best, bestScore = c, s
			}
		}
		if best == nil || sum == 0 {
			break
		}
		if bestScore/sum < opts.DescendThreshold {
			break
		}
		if float64(best.TextLen())/float64(totalText) < opts.MinTextShare {
			break
		}
		// Never descend into one item of a repeated list: a sibling with
		// the same tag and attribute signature means the candidate is a
		// record, not the data region.
		if hasTwin(cur, best) {
			break
		}
		cur = best
	}
	return cur.Node
}

// hasTwin reports whether another child block of cur shares the
// candidate's structural identity.
func hasTwin(cur, best *Block) bool {
	for _, c := range cur.Children {
		if c == best {
			continue
		}
		if c.Node.Data == best.Node.Data && c.Node.AttrSignature() == best.Node.AttrSignature() {
			return true
		}
	}
	return false
}

// blockScore combines a block's area with the horizontal centrality of its
// rectangle: the paper selects "the largest and most central rectangle".
// Text mass is mixed in so that chrome blocks (banners, spacers) with large
// but empty rectangles lose to the data region.
func blockScore(b *Block, pageW float64) float64 {
	area := b.Box.Area()
	if area <= 0 {
		return 0
	}
	offset := b.Box.CenterX() - pageW/2
	if offset < 0 {
		offset = -offset
	}
	centrality := 1 - offset/(pageW/2)
	if centrality < 0 {
		centrality = 0
	}
	text := float64(b.TextLen())
	return area * (0.5 + 0.5*centrality) * (1 + text)
}

// Key identifies a block across the pages of a source. Per the paper,
// block identity uses the tag name, the path in the DOM tree, and the
// attribute names and values.
type Key struct {
	Tag     string
	Path    string
	AttrSig string
}

// KeyOf returns the cross-page identification key of a block element.
func KeyOf(n *dom.Node) Key {
	return Key{Tag: n.Data, Path: n.Path(), AttrSig: n.AttrSignature()}
}

// FindByKey locates the element matching the key in another page of the
// same source. Matching degrades gracefully: an exact tag+path+attributes
// match is preferred; failing that, tag+path; failing that, nil.
func FindByKey(doc *dom.Node, k Key) *dom.Node {
	var pathMatch, fullMatch *dom.Node
	doc.Walk(func(n *dom.Node) bool {
		if fullMatch != nil {
			return false
		}
		if n.Type != dom.ElementNode || n.Data != k.Tag {
			return true
		}
		if !n.HasPath(k.Path) {
			return true
		}
		if pathMatch == nil {
			pathMatch = n
		}
		if n.AttrSignature() == k.AttrSig {
			fullMatch = n
		}
		return true
	})
	if fullMatch != nil {
		return fullMatch
	}
	return pathMatch
}

// SelectMainCtx picks the main block for every page of a source. The
// main block is computed independently per page, the most frequent key
// wins the vote, and each page is then resolved against the winning key
// (falling back to that page's own main block when the key is absent,
// e.g. when the block structure varies). The returned slice is parallel
// to pages. Each page's central-block choice and the winning vote are
// reported to the observer (nil-safe). The per-page layout fan-out stops
// dispatching once ctx is canceled, and the context error is returned
// with a nil slice.
func SelectMainCtx(ctx context.Context, pages []*dom.Node, opts Options, ob *obs.Observer) ([]*dom.Node, error) {
	if len(pages) == 0 {
		return nil, ctx.Err()
	}
	// Layout + block-tree construction is the expensive part and purely
	// per-page; the vote and its events run afterwards in input order.
	mains := make([]*dom.Node, len(pages))
	err := parallel.ForEachCtx(ctx, opts.Workers, len(pages), func(i int) {
		mains[i] = MainBlock(pages[i], opts)
	})
	if err != nil {
		return nil, err
	}
	votes := make(map[Key]int)
	for i := range pages {
		votes[KeyOf(mains[i])]++
		if ob.Enabled() {
			k := KeyOf(mains[i])
			ob.Event("segment.main", obs.A("page", i), obs.A("tag", k.Tag),
				obs.A("path", k.Path), obs.A("text_len", len(mains[i].Text())))
		}
	}
	var winner Key
	best := -1
	for k, v := range votes {
		// Vote ties break on the key itself (tag, then path, then
		// attribute signature) rather than map order.
		if v > best || (v == best && keyLess(k, winner)) {
			winner, best = k, v
		}
	}
	ob.Event("segment.winner", obs.A("tag", winner.Tag), obs.A("path", winner.Path),
		obs.A("votes", best), obs.A("candidates", len(votes)))
	// A winner matching several nodes on some page is one item of a
	// repeated list (a record), not the data region: climb to its parent
	// until the key is unique on every page.
	for depth := 0; depth < 8; depth++ {
		repeated := false
		for _, p := range pages {
			if countByKey(p, winner) > 1 {
				repeated = true
				break
			}
		}
		if !repeated {
			break
		}
		lifted := false
		for _, p := range pages {
			if n := FindByKey(p, winner); n != nil && n.Parent != nil && n.Parent.Type == dom.ElementNode {
				winner = KeyOf(n.Parent)
				lifted = true
				break
			}
		}
		if !lifted {
			break
		}
	}
	out := make([]*dom.Node, len(pages))
	for i, p := range pages {
		if n := FindByKey(p, winner); n != nil {
			out[i] = n
		} else {
			out[i] = mains[i]
		}
	}
	return out, nil
}

// keyLess orders keys lexicographically by tag, path, attribute
// signature — the deterministic tie-break of the main-block vote.
func keyLess(a, b Key) bool {
	if a.Tag != b.Tag {
		return a.Tag < b.Tag
	}
	if a.Path != b.Path {
		return a.Path < b.Path
	}
	return a.AttrSig < b.AttrSig
}

// countByKey counts the elements of doc matching the key exactly.
func countByKey(doc *dom.Node, k Key) int {
	n := 0
	doc.Walk(func(m *dom.Node) bool {
		if m.Type == dom.ElementNode && m.Data == k.Tag && m.HasPath(k.Path) && m.AttrSignature() == k.AttrSig {
			n++
		}
		return true
	})
	return n
}
