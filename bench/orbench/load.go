package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "objectrunner/api/v1"
	"objectrunner/internal/obs"
)

// op is one pre-encoded extract request and the canonical JSON of the
// objects its response must carry.
type op struct {
	source *source
	body   []byte
	pages  int
	want   []byte
}

// tally is the outcome of one run of requests, kept per connection and
// merged.
type tally struct {
	lat dist // ms per request; a failure is failedMs
	// With an observer, every other request records a span; traced and
	// untraced split the successful latencies by that, so a traced run
	// can compare the two halves.
	traced, untraced dist
	lag              dist // ms a send started after it was due
	// backlogMax is the most requests due but not yet sent at once.
	backlogMax  int
	ops, failed int
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func merge(parts []*tally) *tally {
	t := &tally{}
	for _, p := range parts {
		t.lat.xs = append(t.lat.xs, p.lat.xs...)
		t.traced.xs = append(t.traced.xs, p.traced.xs...)
		t.untraced.xs = append(t.untraced.xs, p.untraced.xs...)
		t.lag.xs = append(t.lag.xs, p.lag.xs...)
		t.backlogMax = max(t.backlogMax, p.backlogMax)
		t.ops += p.ops
		t.failed += p.failed
	}
	return t
}

// send issues one extract and records it. Latency runs from `from`, the
// time the request was due, so queueing behind a stall counts. The
// response is checked against the reference only after its end time is
// taken. With an observer, every other request records a serve.http
// span.
func send(c *client, o *op, from time.Time, buf *bytes.Buffer, t *tally, ob *obs.Observer, seq int) {
	var sp *obs.Span
	if seq%2 == 1 {
		sp = ob.Span("serve.http", obs.A("req", seq))
	}
	status, err := c.do(http.MethodPost, "/v1/extract", o.body, buf)
	end := time.Now()
	sp.End()
	t.ops++
	if err != nil || status != http.StatusOK || !sameObjects(buf.Bytes(), o.want) {
		t.failed++
		t.lat.add(failedMs)
		return
	}
	t.lat.add(ms(end.Sub(from)))
	switch {
	case sp != nil:
		t.traced.add(ms(end.Sub(from)))
	case ob.Enabled():
		t.untraced.add(ms(end.Sub(from)))
	}
}

// fanOut calls fn for every index in [0, n) over conns workers, each
// with a tally and a response buffer of its own, and merges the tallies.
func fanOut(conns, n int, fn func(i int, t *tally, buf *bytes.Buffer)) *tally {
	var next atomic.Int64
	parts := make([]*tally, conns)
	var wg sync.WaitGroup
	for w := range parts {
		t := &tally{}
		parts[w] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i, t, &buf)
			}
		}()
	}
	wg.Wait()
	return merge(parts)
}

// openLoop sends every sched[i] at t0 + i/rate over conns connections.
// A request due while every connection is busy waits in line and none is
// dropped; its latency includes the wait.
func openLoop(c *client, sched []*op, rate float64, conns int, ob *obs.Observer) *tally {
	n := len(sched)
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	return fanOut(conns, n, func(i int, t *tally, buf *bytes.Buffer) {
		due := t0.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		start := time.Now()
		t.lag.add(ms(start.Sub(due)))
		t.backlogMax = max(t.backlogMax, min(n, int(start.Sub(t0)/interval)+1)-(i+1))
		send(c, sched[i], due, buf, t, ob, i)
	})
}

// wrapLoop cycles cold wraps through the given registrations on one
// connection until stop closes. Each step registers a source under a key
// the daemon has never cached, so it infers from scratch, then deletes
// it; the extract traffic's own sources are never touched.
func wrapLoop(c *client, keys []string, bodies [][]byte, stop <-chan struct{}) *tally {
	t := &tally{}
	var buf bytes.Buffer
	for i := 0; ; i++ {
		select {
		case <-stop:
			return t
		default:
		}
		k := i % len(keys)
		start := time.Now()
		status, err := c.do(http.MethodPost, "/v1/wrap", bodies[k], &buf)
		t.ops++
		if err != nil || status != http.StatusOK {
			t.failed++
			t.lat.add(failedMs)
			continue
		}
		t.lat.add(ms(time.Since(start)))
		status, err = c.do(http.MethodDelete, sourcePath(keys[k]), nil, &buf)
		t.ops++
		if err != nil || status != http.StatusNoContent {
			t.failed++
		}
	}
}

// register wraps every source over conns connections, recording each
// wrap's latency. A 422 marks the source discarded; it is an answer, not
// a failure.
func register(c *client, srcs []*source, conns int) *tally {
	return fanOut(conns, len(srcs), func(i int, t *tally, buf *bytes.Buffer) {
		s := srcs[i]
		start := time.Now()
		status, err := c.do(http.MethodPost, "/v1/wrap", s.wrapBody, buf)
		t.ops++
		s.discarded = status == http.StatusUnprocessableEntity
		if err != nil || (status != http.StatusOK && !s.discarded) {
			t.failed++
			t.lat.add(failedMs)
			return
		}
		t.lat.add(ms(time.Since(start)))
	})
}

// verify extracts every page of every kept source on its own and keeps
// the objects as the page's reference. Windows and batches are checked
// against concatenations of these.
func verify(c *client, srcs []*source, conns int) *tally {
	type job struct {
		s    *source
		page int
	}
	var jobs []job
	for _, s := range srcs {
		s.objs = make([][]map[string]any, len(s.gen.HTML))
		if s.discarded {
			continue
		}
		for i := range s.gen.HTML {
			jobs = append(jobs, job{s, i})
		}
	}
	return fanOut(conns, len(jobs), func(i int, t *tally, buf *bytes.Buffer) {
		j := jobs[i]
		t.ops++
		body, err := json.Marshal(apiv1.ExtractRequest{Source: j.s.key, Pages: j.s.gen.HTML[j.page : j.page+1]})
		if err != nil {
			t.failed++
			return
		}
		status, err := c.do(http.MethodPost, "/v1/extract", body, buf)
		var resp struct {
			Objects []map[string]any `json:"objects"`
		}
		if err != nil || status != http.StatusOK || json.Unmarshal(buf.Bytes(), &resp) != nil || resp.Objects == nil {
			t.failed++
			return
		}
		j.s.objs[j.page] = resp.Objects
	})
}
