package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	apiv1 "objectrunner/api/v1"
	"objectrunner/internal/eval"
	"objectrunner/internal/sitegen"
)

// corpusPages is the generated pages per source (plus off-template
// pages). It is below the sitegen default of 30 so that a run, which
// registers the whole corpus three times, stays within its time budget.
const corpusPages = 20

// source is one generated source as the benchmark drives it.
type source struct {
	key   string
	dd    *sitegen.DomainData
	gen   *sitegen.Source
	dicts map[string][]apiv1.Entry
	// wrapBody is the pre-encoded POST /v1/wrap registering the source.
	wrapBody []byte
	// discarded is set when the daemon answered the wrap with 422; the
	// source then stays out of the request mix.
	discarded bool
	// objs holds the reference objects of every page, from the
	// single-page verification pass.
	objs [][]map[string]any
}

// loadCorpus generates the sitegen corpus and pre-encodes each source's
// registration the way httpserver.register consumes it: the SOD plus
// static dictionaries read from the knowledge base, one per instanceOf
// class the SOD names. No Web corpus is involved.
//
// The corpus keeps sitegen's default seed on every run; the run's seed
// draws only the traffic. Extraction quality is then the same number on
// every run of a commit, so any change in it is the program's, and its
// bound can be zero.
func loadCorpus(pages int, domains []string) ([]*source, error) {
	cfg := sitegen.DefaultConfig()
	cfg.PagesPerSource = corpusPages
	if pages > 0 {
		cfg.PagesPerSource = pages
	}
	cfg.Domains = domains
	b, err := sitegen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	var out []*source
	for _, dd := range b.Domains {
		dicts := make(map[string][]apiv1.Entry)
		for _, t := range dd.SOD.InstanceOfTypes() {
			class := t.Recognizer.Arg
			for _, e := range b.KB.Instances(class) {
				dicts[class] = append(dicts[class], apiv1.Entry{Value: e.Value, Confidence: e.Confidence})
			}
		}
		for _, g := range dd.Sources {
			// The benchmark sends raw HTML only; dropping the parsed trees
			// keeps its own heap, and so the in-process ladder's garbage
			// collection, close to the daemon's.
			g.Pages = nil
			s := &source{key: dd.Spec.Name + "/" + g.Spec.Name, dd: dd, gen: g, dicts: dicts}
			if s.wrapBody, err = s.wrapRequest(s.key); err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("corpus for domains %v is empty", domains)
	}
	return out, nil
}

// wrapRequest encodes a registration of the source under the given key.
func (s *source) wrapRequest(key string) ([]byte, error) {
	return json.Marshal(apiv1.WrapRequest{
		Source: key, SOD: s.dd.Spec.SODText, Pages: s.gen.HTML, Dictionaries: s.dicts,
	})
}

func kept(srcs []*source) []*source {
	var out []*source
	for _, s := range srcs {
		if !s.discarded {
			out = append(out, s)
		}
	}
	return out
}

// extractOp builds the request for pages [lo, hi) of the source and the
// objects its response must carry: the concatenation of the pages'
// reference objects.
func (s *source) extractOp(lo, hi int) (*op, error) {
	body, err := json.Marshal(apiv1.ExtractRequest{Source: s.key, Pages: s.gen.HTML[lo:hi]})
	if err != nil {
		return nil, err
	}
	want := make([]map[string]any, 0)
	for _, objs := range s.objs[lo:hi] {
		want = append(want, objs...)
	}
	canon, err := json.Marshal(want)
	if err != nil {
		return nil, err
	}
	return &op{source: s, body: body, pages: hi - lo, want: canon}, nil
}

// sameObjects reports whether an extract response body carries exactly
// the expected objects. The daemon's own encoding is canonical today, so
// the byte comparison settles almost every response; anything else is
// decoded and re-encoded canonically (sorted keys) before comparing, so
// an encoder change that keeps the content is not a failure.
func sameObjects(body, want []byte) bool {
	var resp struct {
		Objects json.RawMessage `json:"objects"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	if bytes.Equal(resp.Objects, want) {
		return true
	}
	var got []map[string]any
	if err := json.Unmarshal(resp.Objects, &got); err != nil || got == nil {
		return false
	}
	canon, err := json.Marshal(got)
	return err == nil && bytes.Equal(canon, want)
}

// quality scores every source against its golden set as paper §IV.B
// does: Pc = Oc/No and Pp = (Oc+Op)/No over all golden objects. A
// discarded source contributes its objects as incorrect.
func quality(srcs []*source) (pc, pp float64) {
	var no, oc, op int
	for _, s := range srcs {
		var extracted [][]eval.Record
		for _, objs := range s.objs {
			page := make([]eval.Record, len(objs))
			for i, o := range objs {
				page[i] = record(o)
			}
			extracted = append(extracted, page)
		}
		attrs := s.dd.Spec.Attrs
		r := eval.EvaluateSource(s.gen.Spec.Name, attrs, s.gen.Golden, extracted, eval.IdentityMapping(attrs))
		no, oc, op = no+r.No, oc+r.Oc, op+r.Op
	}
	if no == 0 {
		return 0, 0
	}
	return float64(oc) / float64(no), float64(oc+op) / float64(no)
}

// record turns one flattened response object back into an evaluation
// record: a set field arrives as a JSON array, any other as a string.
func record(o map[string]any) eval.Record {
	rec := make(eval.Record, len(o))
	for field, v := range o {
		switch v := v.(type) {
		case string:
			rec[field] = []string{v}
		case []any:
			for _, x := range v {
				if s, ok := x.(string); ok {
					rec[field] = append(rec[field], s)
				}
			}
		}
	}
	return rec
}
