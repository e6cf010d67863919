package objectrunner

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	apiv1 "objectrunner/api/v1"
	"objectrunner/internal/sod"
)

// encodeExtractResponse is what AppendExtractResponse must reproduce:
// encoding/json's encoder over FlattenObjects.
func encodeExtractResponse(tb testing.TB, source string, pages int, objs []*Object, node string) []byte {
	tb.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(apiv1.ExtractResponse{
		Source: source, Pages: pages, Count: len(objs), Objects: FlattenObjects(objs), Node: node,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkAppendExtractResponse asserts that AppendExtractResponse writes
// the encoder's bytes for objs, without a node and with one.
func checkAppendExtractResponse(tb testing.TB, source string, pages int, objs []*Object) {
	tb.Helper()
	for _, node := range []string{"", "n1"} {
		want := encodeExtractResponse(tb, source, pages, objs, node)
		if got := AppendExtractResponse(nil, source, pages, objs, node); !bytes.Equal(got, want) {
			tb.Errorf("%s node=%q: AppendExtractResponse differs from encoding/json\n got: %s\nwant: %s",
				source, node, got, want)
		}
	}
}

// jsonStringEdges are strings whose JSON encoding has a special case:
// HTML characters, every escape class, invalid UTF-8 (a stray
// continuation byte, a truncated sequence, an encoded surrogate), the
// two JavaScript line terminators, and multi-byte text; the last two
// are bodies from the POST /v1/extract edge table (internal/httpserver).
// They seed FuzzAppendJSONString.
var jsonStringEdges = []string{
	"",
	"plain",
	`<a href="/x?a=1&b=2">Tom & Jerry's</a>`,
	"quote \" backslash \\ slash /",
	"\b\f\n\r\t\x00\x01\x1f\x7f",
	"caf\xc3\xa9 \xf0\x9f\x98\x80 \xe2\x80\x99Til Tuesday",
	"bad \xff byte \x90 and \xe2\x80 cut",
	"surrogate \xed\xa0\x80 encoded",
	"line\xe2\x80\xa8para\xe2\x80\xa9end",
	"\xef\xbf\xbd already a replacement",
	`{"source":"concerts","pages":["<p>caf\u00e9 \ud83d\ude00</p>"]}`,
	`{"source":"concerts","pages":["<p>\ud800</p>"]} trailing`,
}

func TestAppendExtractResponseMatchesEncoder(t *testing.T) {
	ref := sod.RecognizerRef{}
	// A book-like object: nested tuples, a repeated field, and names and
	// values that need escaping.
	title, price := sod.Entity("title", ref), sod.Entity("price", ref)
	author, odd := sod.Entity("author", ref), sod.Entity("<odd&name>", ref)
	authors := sod.Set("authors", author, sod.MultPlus)
	book := sod.Tuple("book", title, price, authors, odd)
	leaf := func(t *sod.Type, v string) *Object { return sod.NewValue(t, v) }
	tuple := func(t *sod.Type, children ...*Object) *Object {
		return &Object{Type: t, Children: children}
	}
	var hand []*Object
	for _, s := range jsonStringEdges {
		hand = append(hand, tuple(book,
			leaf(title, s),
			tuple(authors, leaf(author, "Zed "+s), leaf(author, "Amy"), leaf(author, s)),
			leaf(price, "$1"),
			leaf(odd, s),
		))
	}
	hand = append(hand,
		tuple(book),                      // no leaves: {}
		tuple(book, tuple(authors)),      // an empty set: {}
		tuple(book, leaf(author, "one")), // a set of one: a plain value
	)
	checkAppendExtractResponse(t, "hand/<built>", 3, hand)

	// Empty results: nil and empty both encode "objects":[].
	checkAppendExtractResponse(t, "empty", 2, nil)
	checkAppendExtractResponse(t, "empty", 0, []*Object{})

	// The running example through the serving path.
	svc := NewService(concertExtractor(t), StoreConfig{})
	objs, err := svc.ServeExtract(context.Background(), "concerts", concertPages())
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) == 0 {
		t.Fatal("the running example extracted nothing")
	}
	checkAppendExtractResponse(t, "concerts", len(concertPages()), objs)
}

// FuzzAppendJSONString: for any string, appendJSONString writes exactly
// what json.Marshal writes.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range jsonStringEdges {
		f.Add(s)
	}
	for _, p := range concertPages() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q)\n got: %s\nwant: %s", s, got, want)
		}
	})
}
