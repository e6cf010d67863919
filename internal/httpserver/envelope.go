package httpserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	apiv1 "objectrunner/api/v1"
)

// The request and response envelope of the work routes. /v1/wrap and
// /v1/extract read their body once with readBody; POST /v1/extract then decodes it with
// decodeExtractRequest and answers with writeBody, skipping
// encoding/json's byte-by-byte scanner and its reflection on the one
// route whose bodies are large and frequent. Errors keep writeJSON.

// readBody reads the whole request body. The buffer is sized from
// Content-Length up to presizeLimit, so a body of that size is read
// into one allocation instead of a doubling series, while a client that
// declares a larger body and then stalls holds at most presizeLimit
// besides what it sent. A body over Config.MaxBodyBytes (the
// MaxBytesReader that instrument installs) is answered 413 whatever it
// holds; any other read error is a 400.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var body bytes.Buffer
	if n := r.ContentLength; n > 0 {
		// ReadFrom wants MinRead bytes free before each read, the one
		// that meets EOF included.
		body.Grow(int(min(n, presizeLimit)) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(r.Body); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			s.errorf(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", maxErr.Limit)
			return nil, false
		}
		s.errorf(w, http.StatusBadRequest, "bad JSON: %v", err)
		return nil, false
	}
	return body.Bytes(), true
}

// presizeLimit caps the buffer readBody allocates from Content-Length
// alone: a wrap of a few dozen pages fits, and more waits for the bytes.
const presizeLimit = 1 << 20

// decodeWrapRequest decodes a POST /v1/wrap body into req, which must be
// the zero value: json.Unmarshal on the body's first JSON value, which
// spares the copy of the body json.Decoder buffers. Bytes after that
// value stay ignored, as json.Decoder ignores them. A body Unmarshal
// rejects goes to json.Decoder, so every error text is json.Decoder's.
func decodeWrapRequest(body []byte, req *apiv1.WrapRequest) error {
	if end := objectEnd(body); end > 0 {
		if json.Unmarshal(body[:end], req) == nil {
			return nil
		}
		*req = apiv1.WrapRequest{}
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// objectEnd returns the offset just past the JSON object body starts
// with (after whitespace): the brace that closes its first brace,
// counting braces and brackets outside strings. It returns 0 when body
// does not start with an object or the object does not close; it does
// not validate, which json.Unmarshal does on the prefix it returns.
func objectEnd(body []byte) int {
	i := 0
	for i < len(body) && (body[i] == ' ' || body[i] == '\t' || body[i] == '\n' || body[i] == '\r') {
		i++
	}
	if i == len(body) || body[i] != '{' {
		return 0
	}
	depth, inString := 0, false
	for ; i < len(body); i++ {
		c := body[i]
		if inString {
			switch c {
			case '\\':
				i++
			case '"':
				inString = false
			}
			continue
		}
		switch c {
		case '"':
			inString = true
		case '{', '[':
			depth++
		case '}', ']':
			depth--
			if depth == 0 {
				return i + 1
			}
		}
	}
	return 0
}

// writeBody sends an encoded 200 JSON response with its Content-Length.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // an error means the client is gone
}

// decodeExtractRequest decodes a POST /v1/extract body into req, which
// must be the zero value. The canonical shape takes scanExtractRequest's
// one pass; anything else goes to encoding/json on the same bytes, so
// every result and every error text is encoding/json's.
func decodeExtractRequest(body []byte, req *apiv1.ExtractRequest) error {
	if scanExtractRequest(body, req) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// scanExtractRequest is the one-pass decoder behind decodeExtractRequest.
// It accepts only the shape clients send:
//
//	ws { ws }
//	ws { ws member ( ws , ws member )* ws }
//	member = "source" ws : ws string
//	       | "pages" ws : ws [ ws ( string ( ws , ws string )* )? ws ]
//
// with each key at most once and spelled exactly so, the strings holding
// UTF-8 text and the standard escapes (surrogate pairs included). Bytes
// after the closing brace are ignored, as json.Decoder ignores them.
// Anything else — an unknown, repeated or differently cased key, null,
// a value of another type, invalid UTF-8, a lone surrogate, a control
// character, a truncated body — makes it bail: it returns false, leaves
// req as it was, and encoding/json decides. It never recurses, so
// nesting cannot exhaust the stack. Whatever it accepts, encoding/json
// decodes to the same request.
func scanExtractRequest(body []byte, req *apiv1.ExtractRequest) bool {
	sc := scanner{b: body}
	if !sc.skip('{') {
		return false
	}
	var out apiv1.ExtractRequest
	if sc.skip('}') {
		*req = out
		return true
	}
	var haveSource, havePages bool
	for {
		key, ok := sc.key()
		if !ok || !sc.skip(':') {
			return false
		}
		switch key {
		case "source":
			if haveSource {
				return false
			}
			haveSource = true
			if out.Source, ok = sc.str(); !ok {
				return false
			}
		case "pages":
			if havePages || !sc.skip('[') {
				return false
			}
			havePages = true
			out.Pages = []string{} // [] decodes to an empty slice, not nil
			if !sc.skip(']') {
				for {
					page, ok := sc.str()
					if !ok {
						return false
					}
					out.Pages = append(out.Pages, page)
					if sc.skip(']') {
						break
					}
					if !sc.skip(',') {
						return false
					}
				}
			}
		}
		if sc.skip('}') {
			*req = out
			return true
		}
		if !sc.skip(',') {
			return false
		}
	}
}

// scanner walks a request body for scanExtractRequest.
type scanner struct {
	b   []byte
	i   int
	buf []byte // the unescaped text of the string being read
}

// skip steps over JSON whitespace, then over c if it comes next, and
// reports whether it did.
func (sc *scanner) skip(c byte) bool {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
			continue
		case c:
			sc.i++
			return true
		}
		return false
	}
	return false
}

// key reads an object key: "source" or "pages", spelled exactly so and
// without escapes; any other key fails.
func (sc *scanner) key() (string, bool) {
	if !sc.skip('"') {
		return "", false
	}
	rest := sc.b[sc.i:]
	for _, k := range [...]string{"source", "pages"} {
		if len(rest) > len(k) && string(rest[:len(k)]) == k && rest[len(k)] == '"' {
			sc.i += len(k) + 1
			return k, true
		}
	}
	return "", false
}

// str reads a string value. One loop walks it: a run of plain bytes is
// copied to sc.buf whole when an escape or the closing quote ends it,
// and escapes are decoded into sc.buf, \u00XX (how Go clients send
// every <, > and &) without leaving the loop. A string without escapes
// is copied straight out of the body instead.
func (sc *scanner) str() (string, bool) {
	if !sc.skip('"') {
		return "", false
	}
	b := sc.b
	buf := sc.buf[:0]
	start, run := sc.i, sc.i // run: first body byte not yet copied to buf
	for i := start; i < len(b); {
		c := b[i]
		if plainByte[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			sc.i = i + 1
			if run == start {
				return string(b[start:i]), true
			}
			buf = append(buf, b[run:i]...)
			sc.buf = buf
			return string(buf), true
		case c == '\\':
			buf = append(buf, b[run:i]...)
			if i+5 < len(b) && b[i+1] == 'u' && b[i+2] == '0' && b[i+3] == '0' {
				if hi, lo := hexVal[b[i+4]], hexVal[b[i+5]]; hi|lo < 16 {
					if r := hi<<4 | lo; r < utf8.RuneSelf {
						buf = append(buf, r)
					} else {
						buf = utf8.AppendRune(buf, rune(r))
					}
					i += 6
					run = i
					continue
				}
			}
			var n int
			var ok bool
			if buf, n, ok = unescape(buf, b[i:]); !ok {
				return "", false
			}
			i += n
			run = i
		case c < ' ':
			return "", false
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return "", false
			}
			i += size
		}
	}
	return "", false
}

// plainByte marks the bytes str passes over as they are: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// hexVal maps a hex digit to its value and every other byte to 16.
var hexVal = func() (t [256]byte) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = byte(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = byte(c - 'a' + 10)
		case 'A' <= c && c <= 'F':
			t[c] = byte(c - 'A' + 10)
		default:
			t[c] = 16
		}
	}
	return t
}()

// unescape appends the text of the escape at the start of e to buf and
// returns buf and the escape's length. A surrogate code point must be
// the first half of a pair whose second half follows as the next
// escape.
func unescape(buf, e []byte) ([]byte, int, bool) {
	if len(e) < 2 {
		return buf, 0, false
	}
	switch e[1] {
	case '"', '\\', '/':
		buf = append(buf, e[1])
	case 'b':
		buf = append(buf, '\b')
	case 'f':
		buf = append(buf, '\f')
	case 'n':
		buf = append(buf, '\n')
	case 'r':
		buf = append(buf, '\r')
	case 't':
		buf = append(buf, '\t')
	case 'u':
		r := hex4(e[2:])
		if r < 0 {
			return buf, 0, false
		}
		if r < utf8.RuneSelf {
			return append(buf, byte(r)), 6, true
		}
		if !utf16.IsSurrogate(r) {
			return utf8.AppendRune(buf, r), 6, true
		}
		if len(e) < 12 || e[6] != '\\' || e[7] != 'u' {
			return buf, 0, false
		}
		r = utf16.DecodeRune(r, hex4(e[8:]))
		if r == unicode.ReplacementChar {
			return buf, 0, false
		}
		return utf8.AppendRune(buf, r), 12, true
	default:
		return buf, 0, false
	}
	return buf, 2, true
}

// hex4 decodes the four hex digits at the start of h, or returns -1.
func hex4(h []byte) rune {
	if len(h) < 4 {
		return -1
	}
	var r rune
	for _, c := range h[:4] {
		if hexVal[c] > 15 {
			return -1
		}
		r = r<<4 | rune(hexVal[c])
	}
	return r
}
