package objectrunner

import (
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// FlattenObject converts one extracted object into a flat field→value
// map suitable for JSON serialization: leaf fields map to their string
// value, and a field occurring more than once (a set attribute, e.g.
// the authors of a book) collapses to a []string in occurrence order.
// Nested tuple structure is flattened away — field names in an SOD are
// unique, so no information is lost. cmd/objectrunner's -json output
// and the daemon's /v1/extract responses share this shape; the daemon
// writes it with AppendExtractResponse.
func FlattenObject(o *Object) map[string]any {
	m := make(map[string]any)
	var walk func(in *Object)
	walk = func(in *Object) {
		if in.Leaf() {
			name := in.Type.Name
			switch prev := m[name].(type) {
			case nil:
				m[name] = in.Value
			case string:
				m[name] = []string{prev, in.Value}
			case []string:
				m[name] = append(prev, in.Value)
			}
			return
		}
		for _, c := range in.Children {
			walk(c)
		}
	}
	walk(o)
	return m
}

// FlattenObjects maps FlattenObject over a slice of extracted objects.
// The result is never nil, so it marshals as [] rather than null.
func FlattenObjects(objects []*Object) []map[string]any {
	out := make([]map[string]any, 0, len(objects))
	for _, o := range objects {
		out = append(out, FlattenObject(o))
	}
	return out
}

// AppendExtractResponse appends the body of a POST /v1/extract answer to
// dst: the bytes json.NewEncoder(w).Encode writes for an
// apiv1.ExtractResponse with these fields, Count = len(objects) and
// Objects = FlattenObjects(objects), trailing newline included. The
// node field is left out when node is empty (omitempty).
//
// It builds no maps: each object's leaves are gathered in walk order
// and stably sorted by field name, which gives encoding/json's sorted
// map keys while a repeated field keeps its occurrence order.
func AppendExtractResponse(dst []byte, source string, pages int, objects []*Object, node string) []byte {
	dst = append(dst, `{"source":`...)
	dst = appendJSONString(dst, source)
	dst = append(dst, `,"pages":`...)
	dst = strconv.AppendInt(dst, int64(pages), 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(len(objects)), 10)
	dst = append(dst, `,"objects":[`...)
	var stack [32]*Object
	for i, o := range objects {
		if i > 0 {
			dst = append(dst, ',')
		}
		leaves := appendLeaves(stack[:0], o)
		slices.SortStableFunc(leaves, func(a, b *Object) int {
			return strings.Compare(a.Type.Name, b.Type.Name)
		})
		dst = appendFlatObject(dst, leaves)
	}
	dst = append(dst, ']')
	if node != "" {
		dst = append(dst, `,"node":`...)
		dst = appendJSONString(dst, node)
	}
	return append(dst, "}\n"...)
}

// appendLeaves appends o's leaves in FlattenObject's walk order.
func appendLeaves(leaves []*Object, o *Object) []*Object {
	if o.Leaf() {
		return append(leaves, o)
	}
	for _, c := range o.Children {
		leaves = appendLeaves(leaves, c)
	}
	return leaves
}

// appendFlatObject writes one flattened object from its leaves sorted
// by name: a name seen once maps to its value, a repeated name to the
// array of its values.
func appendFlatObject(dst []byte, leaves []*Object) []byte {
	dst = append(dst, '{')
	for i := 0; i < len(leaves); {
		name := leaves[i].Type.Name
		j := i + 1
		for j < len(leaves) && leaves[j].Type.Name == name {
			j++
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, name)
		dst = append(dst, ':')
		if j-i == 1 {
			dst = appendJSONString(dst, leaves[i].Value)
		} else {
			dst = append(dst, '[')
			for k := i; k < j; k++ {
				if k > i {
					dst = append(dst, ',')
				}
				dst = appendJSONString(dst, leaves[k].Value)
			}
			dst = append(dst, ']')
		}
		i = j
	}
	return append(dst, '}')
}

// appendJSONString appends s as a JSON string the way encoding/json
// writes one with HTML escaping on (its default): `"` and `\` and the
// control characters escaped, <, > and & as \u003c, \u003e, \u0026,
// each invalid UTF-8 byte as \ufffd, and U+2028/U+2029 as \u2028/\u2029.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
