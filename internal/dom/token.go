package dom

import (
	"strconv"
	"strings"
	"unicode"
)

// TokenType discriminates lexical tokens produced by the HTML tokenizer.
type TokenType int

const (
	// StartTagToken is an opening tag such as <div class="x">.
	StartTagToken TokenType = iota
	// EndTagToken is a closing tag such as </div>.
	EndTagToken
	// SelfClosingToken is a self-closed tag such as <br/>.
	SelfClosingToken
	// TextToken is a run of character data between tags.
	TextToken
	// CommentToken is an HTML comment.
	CommentToken
	// DoctypeToken is a <!DOCTYPE ...> declaration.
	DoctypeToken
)

// Token is a single lexical token of an HTML document.
type Token struct {
	Type  TokenType
	Data  string // tag name (lower-cased) or text/comment content
	Attrs []Attr
}

// Tokenizer splits raw HTML into a stream of Tokens. It performs entity
// decoding on text and attribute values and lower-cases tag and attribute
// names. It is resilient: malformed markup degrades to text rather than
// failing.
type Tokenizer struct {
	src string
	pos int
	// rawTag, when non-empty, indicates the tokenizer is inside a raw-text
	// element (script/style/textarea) and must scan for its end tag only.
	rawTag string
}

// NewTokenizer returns a Tokenizer over the given HTML source.
func NewTokenizer(src string) *Tokenizer {
	return &Tokenizer{src: src}
}

// isRawTextTag reports elements whose content is scanned verbatim until
// the matching end tag. A switch compiles to direct comparisons — no map
// hash on the per-tag hot path.
func isRawTextTag(name string) bool {
	switch name {
	case "script", "style", "textarea", "title":
		return true
	}
	return false
}

// Next returns the next token and true, or a zero token and false at the
// end of input. The returned token owns its Attrs slice — callers (the
// tree parser) may retain it.
func (z *Tokenizer) Next() (Token, bool) {
	var tok Token
	if !z.NextInto(&tok) {
		return Token{}, false
	}
	return tok, true
}

// NextInto lexes the next token into *tok, reusing tok.Attrs' backing
// array so a caller that recycles one Token across the whole document
// pays no per-tag allocation. The written Attrs (and any strings shared
// with the source) are only valid until the next NextInto call on the
// same Token. Returns false at end of input, leaving *tok zeroed except
// for the recycled Attrs backing.
func (z *Tokenizer) NextInto(tok *Token) bool {
	attrs := tok.Attrs[:0]
	*tok = Token{Attrs: attrs}
	if z.pos >= len(z.src) {
		return false
	}
	if z.rawTag != "" {
		z.nextRawText(tok)
		return true
	}
	if z.src[z.pos] == '<' {
		if z.nextTag(tok) {
			return true
		}
		// A lone '<' that does not begin a valid construct is text.
		start := z.pos
		z.pos++
		tok.Type = TextToken
		tok.Data = z.src[start:z.pos]
		return true
	}
	z.nextText(tok)
	return true
}

func (z *Tokenizer) nextText(tok *Token) {
	start := z.pos
	for z.pos < len(z.src) && z.src[z.pos] != '<' {
		z.pos++
	}
	tok.Type = TextToken
	tok.Data = DecodeEntities(z.src[start:z.pos])
}

func (z *Tokenizer) nextRawText(tok *Token) {
	end := "</" + z.rawTag
	idx := indexEndTag(z.src[z.pos:], z.rawTag)
	if idx < 0 {
		// Unterminated raw element: consume everything.
		text := z.src[z.pos:]
		z.pos = len(z.src)
		z.rawTag = ""
		tok.Type = TextToken
		tok.Data = text
		return
	}
	if idx == 0 {
		// At the end tag itself; emit it.
		tag := z.rawTag
		z.rawTag = ""
		// Advance past "</tag" then to '>'.
		z.pos += len(end)
		for z.pos < len(z.src) && z.src[z.pos] != '>' {
			z.pos++
		}
		if z.pos < len(z.src) {
			z.pos++
		}
		tok.Type = EndTagToken
		tok.Data = tag
		return
	}
	text := z.src[z.pos : z.pos+idx]
	z.pos += idx
	tok.Type = TextToken
	tok.Data = text
}

// indexEndTag returns the offset in s of the first "</" followed by tag,
// matched case-insensitively, or -1. It searches s's own bytes: a
// lower-cased copy can differ in length (invalid UTF-8 becomes U+FFFD),
// so an offset into the copy can fall outside s. tag is a lower-case
// ASCII raw-text tag name, and each candidate is exactly len(tag)
// bytes, so EqualFold matches ASCII letters only.
func indexEndTag(s, tag string) int {
	for i := 0; ; i += 2 {
		j := strings.Index(s[i:], "</")
		if j < 0 {
			return -1
		}
		i += j
		if rest := s[i+2:]; len(rest) >= len(tag) && strings.EqualFold(rest[:len(tag)], tag) {
			return i
		}
	}
}

// nextTag attempts to lex a tag, comment or doctype at the current '<',
// writing into *tok. It reports false (without consuming input or
// touching *tok beyond Attrs truncation) when the '<' starts none of
// those constructs.
func (z *Tokenizer) nextTag(tok *Token) bool {
	s := z.src
	i := z.pos
	if strings.HasPrefix(s[i:], "<!--") {
		end := strings.Index(s[i+4:], "-->")
		tok.Type = CommentToken
		if end < 0 {
			z.pos = len(s)
			tok.Data = s[i+4:]
			return true
		}
		z.pos = i + 4 + end + 3
		tok.Data = s[i+4 : i+4+end]
		return true
	}
	if len(s) > i+1 && (s[i+1] == '!' || s[i+1] == '?') {
		// Doctype or processing instruction: skip to '>'.
		end := strings.IndexByte(s[i:], '>')
		tok.Type = DoctypeToken
		if end < 0 {
			z.pos = len(s)
			tok.Data = s[i+2:]
			return true
		}
		z.pos = i + end + 1
		tok.Data = s[i+2 : i+end]
		return true
	}
	closing := false
	j := i + 1
	if j < len(s) && s[j] == '/' {
		closing = true
		j++
	}
	// A tag name must start with a letter.
	if j >= len(s) || !isLetter(s[j]) {
		return false
	}
	nameStart := j
	for j < len(s) && isNameChar(s[j]) {
		j++
	}
	name := lowerASCII(s[nameStart:j])
	tok.Data = name
	if closing {
		tok.Type = EndTagToken
		// Skip to '>'.
		for j < len(s) && s[j] != '>' {
			j++
		}
		if j < len(s) {
			j++
		}
		z.pos = j
		return true
	}
	tok.Type = StartTagToken
	// Parse attributes.
	for {
		for j < len(s) && isSpace(s[j]) {
			j++
		}
		if j >= len(s) {
			break
		}
		if s[j] == '>' {
			j++
			break
		}
		if s[j] == '/' {
			// Possibly self-closing.
			k := j + 1
			for k < len(s) && isSpace(s[k]) {
				k++
			}
			if k < len(s) && s[k] == '>' {
				tok.Type = SelfClosingToken
				j = k + 1
				break
			}
			j++
			continue
		}
		// Attribute name.
		aStart := j
		for j < len(s) && !isSpace(s[j]) && s[j] != '=' && s[j] != '>' && s[j] != '/' {
			j++
		}
		aName := lowerASCII(s[aStart:j])
		for j < len(s) && isSpace(s[j]) {
			j++
		}
		aVal := ""
		if j < len(s) && s[j] == '=' {
			j++
			for j < len(s) && isSpace(s[j]) {
				j++
			}
			if j < len(s) && (s[j] == '"' || s[j] == '\'') {
				q := s[j]
				j++
				vStart := j
				for j < len(s) && s[j] != q {
					j++
				}
				aVal = s[vStart:j]
				if j < len(s) {
					j++
				}
			} else {
				vStart := j
				for j < len(s) && !isSpace(s[j]) && s[j] != '>' {
					j++
				}
				aVal = s[vStart:j]
			}
		}
		if aName != "" {
			tok.Attrs = append(tok.Attrs, Attr{Name: aName, Value: DecodeEntities(aVal)})
		}
	}
	z.pos = j
	if tok.Type == StartTagToken && isRawTextTag(name) {
		z.rawTag = name
	}
	return true
}

// lowerASCII lower-cases s, returning s itself (no allocation) when it
// is already free of ASCII upper-case letters — the overwhelmingly
// common case for tag and attribute names in generated markup.
func lowerASCII(s string) string {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b >= 'A' && b <= 'Z' {
			return strings.ToLower(s)
		}
	}
	return s
}

func isLetter(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

func isNameChar(b byte) bool {
	return isLetter(b) || b >= '0' && b <= '9' || b == '-' || b == '_' || b == ':'
}

func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\f'
}

// namedEntities maps the HTML entities that appear in template-generated
// pages with any frequency. Unknown entities are left verbatim.
var namedEntities = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": "\"", "apos": "'",
	"nbsp": " ", "copy": "©", "reg": "®", "trade": "™",
	"hellip": "…", "mdash": "—", "ndash": "–",
	"lsquo": "‘", "rsquo": "’", "ldquo": "“", "rdquo": "”",
	"bull": "•", "middot": "·", "laquo": "«", "raquo": "»",
	"times": "×", "divide": "÷", "deg": "°", "plusmn": "±",
	"frac12": "½", "frac14": "¼", "eacute": "é", "egrave": "è",
	"agrave": "à", "ccedil": "ç", "uuml": "ü", "ouml": "ö",
	"auml": "ä", "euro": "€", "pound": "£", "yen": "¥",
	"cent": "¢", "sect": "§", "para": "¶",
}

// DecodeEntities replaces HTML character references (&amp;, &#65;, &#x41;)
// with their character values. Unrecognised references are preserved
// verbatim.
func DecodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); {
		if s[i] != '&' {
			sb.WriteByte(s[i])
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 12 {
			sb.WriteByte(s[i])
			i++
			continue
		}
		ref := s[i+1 : i+semi]
		if strings.HasPrefix(ref, "#") {
			num := ref[1:]
			base := 10
			if strings.HasPrefix(num, "x") || strings.HasPrefix(num, "X") {
				num = num[1:]
				base = 16
			}
			if v, err := strconv.ParseInt(num, base, 32); err == nil && v > 0 && v <= unicode.MaxRune {
				sb.WriteRune(rune(v))
				i += semi + 1
				continue
			}
		} else if rep, ok := namedEntities[ref]; ok {
			sb.WriteString(rep)
			i += semi + 1
			continue
		}
		sb.WriteByte(s[i])
		i++
	}
	return sb.String()
}

// EncodeEntities escapes the characters that must be escaped when
// serializing text content back to HTML.
func EncodeEntities(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

// EncodeAttr escapes an attribute value for double-quoted serialization.
func EncodeAttr(s string) string {
	r := strings.NewReplacer("&", "&amp;", "\"", "&quot;")
	return r.Replace(s)
}
