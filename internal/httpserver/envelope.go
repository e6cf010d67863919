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

// readBody reads the whole request body. The buffer doubles as bytes
// arrive and is never sized from Content-Length, so a client that
// declares a large body and then stalls costs only what it sent. A body over Config.MaxBodyBytes (the MaxBytesReader that
// instrument installs) is answered 413 whatever it holds; any other
// read error is a 400.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var body bytes.Buffer
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

// str reads a string value. Text without escapes is copied straight out
// of the body; a string with escapes is unescaped into sc.buf first.
func (sc *scanner) str() (string, bool) {
	if !sc.skip('"') {
		return "", false
	}
	b := sc.b
	sc.buf = sc.buf[:0]
	start, run := sc.i, sc.i // run: first body byte not yet copied to buf
	for i := start; i < len(b); {
		c := b[i]
		switch {
		case c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\':
			i++
		case c == '"':
			sc.i = i + 1
			if run == start {
				return string(b[start:i]), true
			}
			sc.buf = append(sc.buf, b[run:i]...)
			return string(sc.buf), true
		case c == '\\':
			sc.buf = append(sc.buf, b[run:i]...)
			n, ok := sc.unescape(b[i:])
			if !ok {
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

// unescape appends the text of the escape at the start of e to sc.buf
// and returns the escape's length. A surrogate code point must be the
// first half of a pair whose second half follows as the next escape.
func (sc *scanner) unescape(e []byte) (int, bool) {
	if len(e) < 2 {
		return 0, false
	}
	switch e[1] {
	case '"', '\\', '/':
		sc.buf = append(sc.buf, e[1])
	case 'b':
		sc.buf = append(sc.buf, '\b')
	case 'f':
		sc.buf = append(sc.buf, '\f')
	case 'n':
		sc.buf = append(sc.buf, '\n')
	case 'r':
		sc.buf = append(sc.buf, '\r')
	case 't':
		sc.buf = append(sc.buf, '\t')
	case 'u':
		r := hex4(e[2:])
		if r < 0 {
			return 0, false
		}
		if r < utf8.RuneSelf {
			sc.buf = append(sc.buf, byte(r))
			return 6, true
		}
		if !utf16.IsSurrogate(r) {
			sc.buf = utf8.AppendRune(sc.buf, r)
			return 6, true
		}
		if len(e) < 12 || e[6] != '\\' || e[7] != 'u' {
			return 0, false
		}
		r = utf16.DecodeRune(r, hex4(e[8:]))
		if r == unicode.ReplacementChar {
			return 0, false
		}
		sc.buf = utf8.AppendRune(sc.buf, r)
		return 12, true
	default:
		return 0, false
	}
	return 2, true
}

// hex4 decodes the four hex digits at the start of h, or returns -1.
func hex4(h []byte) rune {
	if len(h) < 4 {
		return -1
	}
	var r rune
	for _, c := range h[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
