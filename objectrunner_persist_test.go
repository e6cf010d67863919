package objectrunner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"objectrunner/internal/wrapper"
)

// renderAll normalizes an extraction result for byte-level comparison:
// one rendered object per line, in page order.
func renderAll(t *testing.T, w *Wrapper, pages []string) string {
	t.Helper()
	per, err := w.ExtractStreamBatchContext(context.Background(), pages)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, objs := range per {
		for _, o := range objs {
			sb.WriteString(o.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func TestSaveLoadRoundTripByteIdentical(t *testing.T) {
	ex := concertExtractor(t)
	pages := concertPages()
	w, err := ex.Wrap(pages)
	if err != nil {
		t.Fatal(err)
	}
	unseen := `<html><body><li><div>The Strokes</div><div>Friday July 2, 2010 9:00pm</div><div><span><a>Terminal 5</a></span><span>610 West 56th Street</span><span>New York City</span><span>New York</span><span>10019</span></div></li></body></html>`
	probe := append(append([]string{}, pages...), unseen)

	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadWrapper(bytes.NewReader(buf.Bytes()), ex)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := renderAll(t, loaded, probe), renderAll(t, w, probe); got != want {
		t.Errorf("loaded wrapper extraction differs:\n got: %s\nwant: %s", got, want)
	}
	if got := renderAll(t, loaded, probe); !strings.Contains(got, "The Strokes") {
		t.Errorf("loaded wrapper does not generalize to unseen values: %s", got)
	}
	if loaded.Score() != w.Score() || loaded.Support() != w.Support() {
		t.Errorf("score/support drifted: %v/%v vs %v/%v",
			loaded.Score(), loaded.Support(), w.Score(), w.Support())
	}
	if loaded.Report() != w.Report() {
		t.Errorf("report drifted:\n got: %s\nwant: %s", loaded.Report(), w.Report())
	}

	// The stream itself is deterministic: re-saving the loaded wrapper
	// reproduces the original bytes exactly.
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("save -> load -> save is not byte-identical (%d vs %d bytes)",
			buf.Len(), buf2.Len())
	}
}

func TestSaveLoadAbortedWrapper(t *testing.T) {
	ex := concertExtractor(t)
	pages := []string{
		"<html><body><p>about our company and its mission</p></body></html>",
		"<html><body><p>read the terms of service carefully</p></body></html>",
		"<html><body><p>open positions and press contacts</p></body></html>",
	}
	w, err := ex.Wrap(pages)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("wrap err = %v, want ErrAborted", err)
	}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadWrapper(&buf, ex)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Report() != w.Report() {
		t.Errorf("aborted report drifted:\n got: %s\nwant: %s", loaded.Report(), w.Report())
	}
	if _, err := loaded.ExtractErr(ParsePage(pages[0])); !errors.Is(err, ErrAborted) {
		t.Errorf("extract on loaded aborted wrapper: err = %v, want ErrAborted", err)
	}
}

// withPayload re-frames a wrapper stream around a new JSON payload, with
// the header checksum recomputed so that the payload itself is what the
// decoder judges.
func withPayload(payload []byte) string {
	sum := sha256.Sum256(payload)
	return fmt.Sprintf("%s v%d sha256=%s\n%s", wrapper.FormatMagic, wrapper.FormatVersion, hex.EncodeToString(sum[:]), payload)
}

// editTemplate decodes the stream's payload into generic JSON, lets edit
// rewrite the persisted template's node list, and re-frames the result.
func editTemplate(tb testing.TB, stream string, edit func(nodes []any) []any) string {
	tb.Helper()
	var p map[string]any
	if err := json.Unmarshal([]byte(stream[strings.IndexByte(stream, '\n')+1:]), &p); err != nil {
		tb.Fatal(err)
	}
	tmpl, ok := p["template"].(map[string]any)
	if !ok {
		tb.Fatal("payload has no template")
	}
	tmpl["nodes"] = edit(tmpl["nodes"].([]any))
	payload, err := json.Marshal(p)
	if err != nil {
		tb.Fatal(err)
	}
	return withPayload(payload)
}

// appendChild adds child to node id's child list.
func appendChild(nodes []any, id int, child any) {
	n := nodes[id].(map[string]any)
	children, _ := n["children"].([]any)
	n["children"] = append(children, child)
}

// badStreams derives malformed streams from a good one: wrong framing,
// an unsupported version, a corrupted or truncated payload, and template
// node graphs that are not trees. The running example's template is a
// root (node 0) with one leaf child (node 1).
func badStreams(tb testing.TB, good string) map[string]string {
	tb.Helper()
	return map[string]string{
		"not a wrapper stream": "hello world\n{}",
		"version mismatch":     strings.Replace(good, " v2 ", " v9 ", 1),
		"v1 header":            strings.Replace(good, " v2 ", " v1 ", 1),
		"corrupted payload":    good[:len(good)-2] + "xx",
		"truncated payload":    good[:len(good)/2],
		// A node listing itself as a child: re-encoding such a template
		// recurses until the process dies of a stack overflow.
		"self-child node": editTemplate(tb, good, func(nodes []any) []any {
			appendChild(nodes, 0, 0)
			return nodes
		}),
		// A copy of the leaf (node 2) listed by both node 0 and node 1.
		"node with two parents": editTemplate(tb, good, func(nodes []any) []any {
			leaf, err := json.Marshal(nodes[1])
			if err != nil {
				tb.Fatal(err)
			}
			var dup any
			if err := json.Unmarshal(leaf, &dup); err != nil {
				tb.Fatal(err)
			}
			nodes = append(nodes, dup)
			appendChild(nodes, 0, 2)
			appendChild(nodes, 1, 2)
			return nodes
		}),
	}
}

func TestLoadRejectsBadStreams(t *testing.T) {
	ex := concertExtractor(t)
	w, err := ex.Wrap(concertPages())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for name, stream := range badStreams(t, buf.String()) {
		if _, err := LoadWrapper(strings.NewReader(stream), ex); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
}

// FuzzDecode feeds arbitrary JSON payloads, framed with a valid header
// and checksum, to the wrapper decoder, with and without a live SOD to
// re-bind. Decode must fail with an error or return a wrapper that
// encodes again: a stream must never panic the process or send a later
// Save into endless recursion.
func FuzzDecode(f *testing.F) {
	ex := concertExtractor(f)
	w, err := ex.Wrap(concertPages())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.String()
	f.Add(good[strings.IndexByte(good, '\n')+1:])
	for _, stream := range badStreams(f, good) {
		if nl := strings.IndexByte(stream, '\n'); nl >= 0 {
			f.Add(stream[nl+1:])
		}
	}
	f.Fuzz(func(t *testing.T, payload string) {
		stream := withPayload([]byte(payload))
		for _, rebind := range []*SOD{nil, ex.SOD()} {
			dw, err := wrapper.Decode(strings.NewReader(stream), rebind)
			if err != nil {
				continue
			}
			if err := dw.Encode(io.Discard); err != nil {
				t.Errorf("decoded wrapper does not encode again: %v", err)
			}
		}
	})
}

func TestLoadRejectsSODMismatch(t *testing.T) {
	ex := concertExtractor(t)
	w, err := ex.Wrap(concertPages())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := New(`tuple { artist: instanceOf(Artist), date: date }`,
		WithDictionary("Artist", []Entry{{Value: "Metallica", Confidence: 0.9}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadWrapper(&buf, other); !errors.Is(err, ErrSODMismatch) {
		t.Errorf("err = %v, want ErrSODMismatch", err)
	}
}

func TestSaveNilWrapper(t *testing.T) {
	var nilW *Wrapper
	if err := nilW.Save(&bytes.Buffer{}); !errors.Is(err, ErrNoWrapper) {
		t.Errorf("nil wrapper: err = %v, want ErrNoWrapper", err)
	}
	if err := (&Wrapper{}).Save(&bytes.Buffer{}); !errors.Is(err, ErrNoWrapper) {
		t.Errorf("empty wrapper: err = %v, want ErrNoWrapper", err)
	}
}

func TestSaveLoadWrapperFile(t *testing.T) {
	ex := concertExtractor(t)
	pages := concertPages()
	w, err := ex.Wrap(pages)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/concerts.wrapper"
	if err := SaveWrapperFile(w, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadWrapperFile(path, ex)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderAll(t, loaded, pages), renderAll(t, w, pages); got != want {
		t.Errorf("file round-trip extraction differs:\n got: %s\nwant: %s", got, want)
	}
}
