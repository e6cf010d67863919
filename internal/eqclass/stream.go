package eqclass

// This file is the serving path's streaming tokenizer: one fused pass
// over raw HTML that produces exactly the token stream the tree path
// produces via clean.Page → segment.FindByKey → TokenizeLookupPage,
// without materializing a dom.Node tree. It reads the cleaned page's
// events from clean.Events — the same producer clean.Page builds its
// tree from, so the parser repairs and cleaning rules exist once — and
// adds only what is specific to streaming: html/body synthesis as
// implicit frames, FindByKey's candidate selection, and word splitting
// with read-only symbol lookup, all against a reused per-call arena —
// steady-state cache hits allocate close to nothing.
//
// html/body synthesis needs whole-document knowledge before the first
// token; an upfront scan supplies it, and the pages where the scan's
// promise and the events disagree (an <html> or <body> named only in
// text or an attribute, a <body> outside the first <html> subtree) make
// the pass bail, so the caller falls back to the tree path. Correctness
// therefore never depends on the fast path: the tree pipeline remains
// the reference oracle, and TestStreamVsTreeExtract holds the two
// byte-identical over the sitegen corpus.

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"objectrunner/internal/clean"
	"objectrunner/internal/dom"
	"objectrunner/internal/symtab"
)

// StreamKey mirrors segment.Key for streaming block scoping without an
// eqclass→segment dependency.
type StreamKey struct {
	Tag     string
	Path    string
	AttrSig string
}

// streamFrame is one open element of the cleaned page.
type streamFrame struct {
	pathLen int        // pathBuf length before this frame extended it
	mark    int        // arena index of this frame's start occurrence
	valSym  symtab.Sym // interned TagValue (start and end share it)
	pthSym  symtab.Sym // interned document-rooted path
	// implicit marks a synthesized body inside the first html; the
	// element events never close it, its html's close does.
	implicit bool
	// firstHTML marks the html that html/body synthesis gives a body:
	// the first <html>, or the synthesized one.
	firstHTML bool
	cand      int8 // 0 not a block-key candidate, 1 tag+path, 2 tag+path+attrs
}

// StreamArena is the reusable scratch state of one streaming
// tokenization. One arena serves one goroutine at a time; wrapper-level
// code pools them (sync.Pool) so steady-state serving reuses the token
// arena, the frame stack, the event producer, and the path/word buffers
// across pages.
type StreamArena struct {
	arena    []Occurrence
	occs     []*Occurrence
	frames   []streamFrame
	pathBuf  []byte
	wordBuf  []byte
	sigPairs []string // attr-signature sort scratch (candidates only)
	events   clean.Events
}

// TokenizeLookupStream tokenizes raw HTML straight into the region token
// stream the tree path would produce for it: the cleaned page's events,
// html/body synthesis, block scoping by key (nil key means whole page),
// and read-only symbol resolution against tab are all fused into one
// pass. Occurrences carry only the fields extraction reads — Kind, Raw,
// Val, Pth — and live in the arena until the next call.
//
// ok is false when the page's structure defeats the fused pass (or tab
// is nil); the caller must then take the tree path. The returned slice
// aliases the arena: it is valid only until the next call on a.
func TokenizeLookupStream(a *StreamArena, tab *symtab.Table, src string, key *StreamKey, page int) (region []*Occurrence, ok bool) {
	if tab == nil {
		return nil, false
	}
	a.arena = a.arena[:0]
	a.frames = a.frames[:0]
	a.pathBuf = a.pathBuf[:0]
	evs := &a.events
	evs.Reset(src)

	// html/body synthesis happens only when the page has no such element,
	// so the decision needs whole-document knowledge before the first
	// token. A substring scan can over-detect (entity text, attribute
	// values) — that only costs a rare bail — but can never miss a real
	// tag.
	srcHasHTML := containsTagFold(src, "html")
	srcHasBody := containsTagFold(src, "body")

	fullStart, fullEnd := -1, -1 // resolved full block-key match
	pathStart, pathEnd := -1, -1 // first surviving tag+path-only match

	docPth := tab.Lookup("")
	curPth := func() symtab.Sym {
		if n := len(a.frames); n > 0 {
			return a.frames[n-1].pthSym
		}
		return docPth
	}

	// open pushes a frame for a surviving element and emits its start tag.
	open := func(name string, attrs []dom.Attr) *streamFrame {
		pathLen := len(a.pathBuf)
		if pathLen > 0 {
			a.pathBuf = append(a.pathBuf, '/')
		}
		a.pathBuf = append(a.pathBuf, name...)
		f := streamFrame{
			pathLen: pathLen,
			mark:    len(a.arena),
			valSym:  tab.LookupBytes(a.tagValue(name, attrs)),
			pthSym:  tab.LookupBytes(a.pathBuf),
		}
		a.arena = append(a.arena, Occurrence{Kind: KindStartTag, Val: f.valSym, Pth: f.pthSym})
		a.frames = append(a.frames, f)
		return &a.frames[len(a.frames)-1]
	}

	// closeTop closes the top frame: dropping an empty element by arena
	// truncation, or emitting its end tag and resolving its candidacy. It
	// reports false on bail: when the first html closes without the body
	// the scan promised, html/body synthesis would move its children into
	// a new body — a reshaping the stream already emitted past.
	closeTop := func(empty bool) bool {
		n := len(a.frames) - 1
		f := a.frames[n]
		a.frames = a.frames[:n]
		a.pathBuf = a.pathBuf[:f.pathLen]
		if empty {
			a.arena = a.arena[:f.mark]
			return true
		}
		a.arena = append(a.arena, Occurrence{Kind: KindEndTag, Val: f.valSym, Pth: f.pthSym})
		// A candidate that reached end-tag emission survived cleaning, so
		// FindByKey would see it.
		switch f.cand {
		case 2:
			fullStart, fullEnd = f.mark, len(a.arena)
		case 1:
			if pathStart < 0 {
				pathStart, pathEnd = f.mark, len(a.arena)
			}
		}
		return !(f.firstHTML && srcHasBody && !evs.Body())
	}

	if !srcHasHTML {
		open("html", nil).firstHTML = true
		if !srcHasBody {
			open("body", nil)
		}
	}

	var ev clean.Event
	for evs.Next(&ev) {
		switch ev.Kind {
		case clean.TextEvent:
			a.appendWords(tab, ev.Data, curPth())
		case clean.OpenEvent:
			f := open(ev.Data, ev.Attrs)
			f.firstHTML = ev.FirstHTML
			if key != nil && fullStart < 0 && ev.Data == key.Tag && string(a.pathBuf) == key.Path {
				if attrSigEqual(a, ev.Attrs, key.AttrSig) {
					f.cand = 2
				} else if pathStart < 0 {
					f.cand = 1
				}
			}
			if ev.FirstHTML && !srcHasBody {
				open("body", nil).implicit = true
			}
		case clean.CloseEvent:
			if a.frames[len(a.frames)-1].implicit && !closeTop(false) {
				return nil, false
			}
			if !closeTop(ev.Empty) {
				return nil, false
			}
		}
		if fullStart >= 0 && (!srcHasBody || evs.Body()) {
			// The block key resolved exactly, and no body synthesis can
			// still reshape the page; nothing after the region can change
			// it (pre-order-first wins, and a closed non-empty region can
			// no longer be truncated).
			break
		}
	}
	if srcHasHTML && !evs.HTML() {
		// The scan promised an <html> that never materialized as a tag
		// (or the scan stopped before it); the tree path would synthesize
		// structure the stream did not.
		return nil, false
	}
	for len(a.frames) > 0 {
		if !closeTop(false) {
			return nil, false
		}
	}

	start, end := 0, len(a.arena)
	if key != nil {
		switch {
		case fullStart >= 0:
			start, end = fullStart, fullEnd
		case pathStart >= 0:
			start, end = pathStart, pathEnd
		}
		// Neither: FindByKey misses and the wrapper scopes to the whole
		// page, which is the full arena already.
	}

	a.occs = a.occs[:0]
	for i := start; i < end; i++ {
		a.arena[i].Page = page
		a.arena[i].Pos = i - start
		a.occs = append(a.occs, &a.arena[i])
	}
	return a.occs, true
}

// appendWords appends the text's words — strings.Fields' split — as word
// occurrences on path pth.
func (a *StreamArena) appendWords(tab *symtab.Table, data string, pth symtab.Sym) {
	i := 0
	for i < len(data) {
		r, size := rune(data[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(data[i:])
		}
		if unicode.IsSpace(r) {
			i += size
			continue
		}
		start := i
		for i < len(data) {
			r, size = rune(data[i]), 1
			if r >= utf8.RuneSelf {
				r, size = utf8.DecodeRuneInString(data[i:])
			}
			if unicode.IsSpace(r) {
				break
			}
			i += size
		}
		word := data[start:i]
		a.wordBuf = appendLower(a.wordBuf[:0], word)
		a.arena = append(a.arena, Occurrence{
			Kind: KindWord,
			Raw:  word,
			Val:  tab.LookupBytes(a.wordBuf),
			Pth:  pth,
		})
	}
}

// tagValue builds TagValue's "name" or "name.firstclasstoken" form into
// the arena's word buffer.
func (a *StreamArena) tagValue(name string, attrs []dom.Attr) []byte {
	a.wordBuf = append(a.wordBuf[:0], name...)
	for _, at := range attrs {
		if !clean.AttrIs(at.Name, "class") {
			continue
		}
		cls := at.Value
		i := 0
		for i < len(cls) {
			r, size := rune(cls[i]), 1
			if r >= utf8.RuneSelf {
				r, size = utf8.DecodeRuneInString(cls[i:])
			}
			if !unicode.IsSpace(r) {
				break
			}
			i += size
		}
		start := i
		for i < len(cls) {
			r, size := rune(cls[i]), 1
			if r >= utf8.RuneSelf {
				r, size = utf8.DecodeRuneInString(cls[i:])
			}
			if unicode.IsSpace(r) {
				break
			}
			i += size
		}
		if start < i {
			a.wordBuf = append(a.wordBuf, '.')
			a.wordBuf = appendLower(a.wordBuf, cls[start:i])
		}
		break // only the first class attribute counts (Node.Attr semantics)
	}
	return a.wordBuf
}

// containsTagFold reports whether src contains '<' immediately followed
// by name, ASCII-case-insensitively. It can over-report (the bytes may
// sit in a comment, attribute value, or a longer tag name — costing at
// worst a bail to the tree path) but never misses a real <name tag.
func containsTagFold(src, name string) bool {
	for i := 0; i+len(name) < len(src); i++ {
		if src[i] != '<' {
			continue
		}
		match := true
		for j := 0; j < len(name); j++ {
			b := src[i+1+j]
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			if b != name[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// appendLower appends the lower-cased form of s to dst with
// strings.ToLower's exact rune semantics.
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			dst = append(dst, b)
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
		i += size
	}
	return dst
}

// attrSigEqual reports whether the token attributes' AttrSignature —
// lexically sorted "name=value" pairs with lower-cased names, joined by
// ';' — equals sig. The tokenizer lower-cases only ASCII letters, so the
// names are lower-cased here too, as AttrSignature does. The check runs
// only on tag+path candidates — a handful of elements per page at most —
// so the small sort scratch stays off the per-token path.
func attrSigEqual(a *StreamArena, attrs []dom.Attr, sig string) bool {
	if len(attrs) == 0 {
		return sig == ""
	}
	pairs := a.sigPairs[:0]
	for _, at := range attrs {
		pairs = append(pairs, strings.ToLower(at.Name)+"="+at.Value)
	}
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j] < pairs[j-1]; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	a.sigPairs = pairs[:0]
	pos := 0
	for i, p := range pairs {
		if i > 0 {
			if pos >= len(sig) || sig[pos] != ';' {
				return false
			}
			pos++
		}
		if pos+len(p) > len(sig) || sig[pos:pos+len(p)] != p {
			return false
		}
		pos += len(p)
	}
	return pos == len(sig)
}
