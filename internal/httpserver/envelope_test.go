package httpserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"unicode/utf16"

	apiv1 "objectrunner/api/v1"
	"objectrunner/internal/sitegen"
)

// TestScanExtractRequestBailRule checks the edge table's fast column:
// which bodies the one-pass decoder takes, and which it leaves to
// encoding/json.
func TestScanExtractRequestBailRule(t *testing.T) {
	for _, tc := range extractEdges() {
		var req apiv1.ExtractRequest
		if got := scanExtractRequest([]byte(tc.body), &req); got != tc.fast {
			t.Errorf("%s: fast path took it = %v, want %v", tc.name, got, tc.fast)
		}
	}
}

// pythonJSON encodes req as Python's json.dumps does by default: ", "
// and ": " separators, and every character outside printable ASCII as a
// \u escape (a surrogate pair above U+FFFF).
func pythonJSON(req apiv1.ExtractRequest) []byte {
	str := func(b []byte, s string) []byte {
		b = append(b, '"')
		for _, r := range s {
			switch {
			case r == '"' || r == '\\':
				b = append(b, '\\', byte(r))
			case r == '\n':
				b = append(b, `\n`...)
			case r == '\r':
				b = append(b, `\r`...)
			case r == '\t':
				b = append(b, `\t`...)
			case r == '\b':
				b = append(b, `\b`...)
			case r == '\f':
				b = append(b, `\f`...)
			case r > 0xffff:
				hi, lo := utf16.EncodeRune(r)
				b = fmt.Appendf(b, `\u%04x\u%04x`, hi, lo)
			case r < ' ' || r > '~':
				b = fmt.Appendf(b, `\u%04x`, r)
			default:
				b = append(b, byte(r))
			}
		}
		return append(b, '"')
	}
	b := str([]byte(`{"source": `), req.Source)
	b = append(b, `, "pages": [`...)
	for i, p := range req.Pages {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = str(b, p)
	}
	return append(b, "]}"...)
}

// TestScanExtractRequestTakesClientBodies: the one-pass decoder takes
// what clients send — Go's json.Marshal (which escapes every <, > and &)
// and Python's json.dumps — for every generated page, and decodes it to
// the request that was encoded. A fast path that always bailed would
// pass every parity check; this test is what keeps it fast.
func TestScanExtractRequestTakesClientBodies(t *testing.T) {
	cfg := sitegen.DefaultConfig()
	cfg.PagesPerSource = 6
	b, err := sitegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []apiv1.ExtractRequest{{Source: "edge/text", Pages: []string{
		"caf\u00e9 \U0001F600 \u2028\u2029 \u2019Til \x7f \x00\x1f <&> \"q\" \\ /", "",
	}}}
	for _, dd := range b.Domains {
		for _, src := range dd.Sources {
			reqs = append(reqs, apiv1.ExtractRequest{Source: dd.Spec.Name + "/" + src.Spec.Name, Pages: src.HTML})
		}
	}
	for _, req := range reqs {
		goBody, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		for client, body := range map[string][]byte{"json.Marshal": goBody, "python": pythonJSON(req)} {
			var got apiv1.ExtractRequest
			if !scanExtractRequest(body, &got) {
				t.Errorf("%s body of %s: the fast path bailed", client, req.Source)
				continue
			}
			if !reflect.DeepEqual(got, req) {
				t.Errorf("%s body of %s: decoded to a different request", client, req.Source)
			}
		}
	}
}

// FuzzDecodeExtractRequest: for any body, decodeExtractRequest and
// encoding/json agree on success or failure, on the error text and on
// the request decoded.
func FuzzDecodeExtractRequest(f *testing.F) {
	for _, tc := range extractEdges() {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want apiv1.ExtractRequest
		gotErr := decodeExtractRequest(body, &got)
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error = %v, encoding/json: %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %#v, encoding/json: %#v", got, want)
		}
	})
}
