package obs

import (
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"
)

// metrics holds the observer's named counters and duration histograms —
// plain and labeled series share the maps, keyed by the canonical series
// key — safe for concurrent use.
type metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*hist
	// series counts the distinct labeled series admitted per metric name
	// (keyed "<kind>\xff<name>"), enforcing the cardinality cap.
	series map[string]int
}

// numBuckets is the log-bucket count of every duration histogram.
const numBuckets = 32

// hist is a compact duration histogram: count/sum/min/max plus
// power-of-two microsecond buckets (<1µs, <2µs, <4µs, ..., >=2^30 µs —
// the last bucket is open-ended at about 18 minutes).
type hist struct {
	count    int64
	sum      time.Duration
	min, max time.Duration
	buckets  [numBuckets]int64
}

// bucketOf maps a duration to its bucket: bucket i counts observations
// with d < 2^i µs (values in [2^(i-1), 2^i) µs land in bucket i).
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	if b := bits.Len64(uint64(us)); b < numBuckets {
		return b
	}
	return numBuckets - 1
}

// bucketBound is the upper duration bound of bucket i.
func bucketBound(i int) time.Duration {
	return time.Duration(int64(1)<<uint(i)) * time.Microsecond
}

// Label is one metric label: a key/value pair attached to a series by
// the labeled calls (CountL/ObserveL, CounterVec/HistVec). Labels must be
// low-cardinality — source keys, routes, status classes — never raw
// paths, page contents or anything user-controlled and unbounded; see
// the cardinality cap below.
type Label struct {
	Key   string
	Value string
}

// L builds a metric label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// maxSeriesPerMetric bounds the distinct label sets recorded per metric
// name. Beyond it, new label sets collapse into the series
// `name{overflow="true"}` and the plain counter obs.series_overflow is
// bumped — an unbounded label (a bug) degrades to one noisy series
// instead of eating the process's memory.
const maxSeriesPerMetric = 256

// seriesKey renders the canonical series identity `name{k="v",...}`:
// labels sorted by key, values escaped like the Prometheus text format
// (backslash, double quote, newline). Without labels it is just name.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		escapeLabelValue(&sb, l.Value)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabelValue(sb *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
}

// SplitSeries is the inverse of the series rendering: it splits a key
// from Counters/Histograms/Snapshot back into the metric name and its
// labels (un-escaped, in rendered order). A plain key returns nil labels.
func SplitSeries(key string) (name string, labels []Label) {
	i := strings.IndexByte(key, '{')
	if i < 0 || !strings.HasSuffix(key, "}") {
		return key, nil
	}
	name = key[:i]
	body := key[i+1 : len(key)-1]
	for len(body) > 0 {
		eq := strings.Index(body, `="`)
		if eq < 0 {
			break
		}
		lk := body[:eq]
		rest := body[eq+2:]
		var vb strings.Builder
		j := 0
		for j < len(rest) {
			c := rest[j]
			if c == '\\' && j+1 < len(rest) {
				switch rest[j+1] {
				case '\\':
					vb.WriteByte('\\')
				case '"':
					vb.WriteByte('"')
				case 'n':
					vb.WriteByte('\n')
				default:
					vb.WriteByte(rest[j+1])
				}
				j += 2
				continue
			}
			if c == '"' {
				break
			}
			vb.WriteByte(c)
			j++
		}
		labels = append(labels, Label{Key: lk, Value: vb.String()})
		body = rest[j:]
		body = strings.TrimPrefix(body, `"`)
		body = strings.TrimPrefix(body, ",")
	}
	return name, labels
}

// admitLocked enforces the cardinality cap for a new labeled series of
// the given kind ("c" counters, "h" histograms): it returns the key to
// record under, which is the overflow series once the metric's cap is
// reached.
func (m *metrics) admitLocked(kind, name, key string) string {
	if m.series == nil {
		m.series = make(map[string]int)
	}
	sk := kind + "\xff" + name
	if m.series[sk] >= maxSeriesPerMetric {
		if m.counters == nil {
			m.counters = make(map[string]int64)
		}
		m.counters["obs.series_overflow"]++
		return seriesKey(name, []Label{{Key: "overflow", Value: "true"}})
	}
	m.series[sk]++
	return key
}

func (m *metrics) count(name string, delta int64, labels []Label) {
	m.mu.Lock()
	if m.counters == nil {
		m.counters = make(map[string]int64)
	}
	key := seriesKey(name, labels)
	if len(labels) > 0 {
		if _, ok := m.counters[key]; !ok {
			key = m.admitLocked("c", name, key)
		}
	}
	m.counters[key] += delta
	m.mu.Unlock()
}

func (m *metrics) observe(name string, d time.Duration, labels []Label) {
	m.mu.Lock()
	if m.hists == nil {
		m.hists = make(map[string]*hist)
	}
	key := seriesKey(name, labels)
	if len(labels) > 0 {
		if _, ok := m.hists[key]; !ok {
			key = m.admitLocked("h", name, key)
		}
	}
	h := m.hists[key]
	if h == nil {
		h = &hist{min: d, max: d}
		m.hists[key] = h
	}
	h.count++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.buckets[bucketOf(d)]++
	m.mu.Unlock()
}

// HistSnapshot is a read-only view of one duration histogram.
type HistSnapshot struct {
	Count    int64
	Sum      time.Duration
	Min, Max time.Duration
	// Buckets holds power-of-two microsecond buckets: Buckets[i] counts
	// observations with d < 2^i µs (the last bucket is open-ended).
	Buckets [numBuckets]int64
}

// Mean returns the average observed duration.
func (h HistSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the log-bucket
// layout by linear interpolation inside the bucket holding the target
// rank. Quantile(0) is exactly Min and Quantile(1) exactly Max; in
// between, the estimate lies inside the true value's bucket, so the
// relative error is bounded by the bucket width — at most a factor of 2
// (and the first and last observed buckets are additionally clamped to
// Min/Max). Quantiles of an empty histogram are 0; q is clamped to
// [0, 1].
func (h HistSnapshot) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := q * float64(h.Count)
	cum := 0.0
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= rank {
			lo := time.Duration(0)
			if i > 0 {
				lo = bucketBound(i - 1)
			}
			hi := bucketBound(i)
			if lo < h.Min {
				lo = h.Min
			}
			if hi > h.Max {
				hi = h.Max
			}
			if hi <= lo {
				return lo
			}
			frac := (rank - cum) / float64(n)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum = next
	}
	return h.Max
}

// Counters returns a copy of the observer's counters, keyed by series
// key (`name` or `name{k="v",...}`).
func (o *Observer) Counters() map[string]int64 {
	out := make(map[string]int64)
	if !o.Enabled() {
		return out
	}
	m := &o.core.met
	m.mu.Lock()
	for k, v := range m.counters {
		out[k] = v
	}
	m.mu.Unlock()
	return out
}

// Counter returns one counter's value (0 when unset or disabled). For a
// labeled series pass the full series key — see SeriesKey.
func (o *Observer) Counter(name string) int64 {
	if !o.Enabled() {
		return 0
	}
	m := &o.core.met
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// SeriesKey renders the series key the labeled calls record under, for
// looking a labeled series up in Counters/Histograms/Snapshot output.
func SeriesKey(name string, labels ...Label) string { return seriesKey(name, labels) }

// Histograms returns a copy of the observer's histograms, keyed by
// series key.
func (o *Observer) Histograms() map[string]HistSnapshot {
	out := make(map[string]HistSnapshot)
	if !o.Enabled() {
		return out
	}
	m := &o.core.met
	m.mu.Lock()
	for k, h := range m.hists {
		out[k] = HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Buckets: h.buckets}
	}
	m.mu.Unlock()
	return out
}

// Histogram returns one histogram series' snapshot (zero when unset).
func (o *Observer) Histogram(name string) HistSnapshot {
	if !o.Enabled() {
		return HistSnapshot{}
	}
	m := &o.core.met
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hists[name]
	if h == nil {
		return HistSnapshot{}
	}
	return HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Buckets: h.buckets}
}

// MetricNames returns the sorted series keys of all counters and
// histograms, for stable diagnostic output.
func (o *Observer) MetricNames() (counters, hists []string) {
	if !o.Enabled() {
		return nil, nil
	}
	m := &o.core.met
	m.mu.Lock()
	for k := range m.counters {
		counters = append(counters, k)
	}
	for k := range m.hists {
		hists = append(hists, k)
	}
	m.mu.Unlock()
	sort.Strings(counters)
	sort.Strings(hists)
	return counters, hists
}

// HistView is the JSON-friendly export of one duration histogram, in
// milliseconds (durations marshal as opaque nanosecond integers, so the
// wire format converts). The quantiles are log-bucket estimates — see
// HistSnapshot.Quantile for the error bound.
type HistView struct {
	Count  int64   `json:"count"`
	SumMs  float64 `json:"sum_ms"`
	MeanMs float64 `json:"mean_ms"`
	MinMs  float64 `json:"min_ms"`
	MaxMs  float64 `json:"max_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// View converts the snapshot to its JSON export shape.
func (h HistSnapshot) View() HistView {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return HistView{
		Count:  h.Count,
		SumMs:  ms(h.Sum),
		MeanMs: ms(h.Mean()),
		MinMs:  ms(h.Min),
		MaxMs:  ms(h.Max),
		P50Ms:  ms(h.Quantile(0.50)),
		P90Ms:  ms(h.Quantile(0.90)),
		P95Ms:  ms(h.Quantile(0.95)),
		P99Ms:  ms(h.Quantile(0.99)),
	}
}

// Snapshot is a point-in-time export of every counter, gauge and
// histogram, shaped for JSON serialization (the daemon's /metrics
// endpoint) and renderable as Prometheus text via
// WritePrometheus. Gauges are snapshot-local: the observer tracks only
// counters and histograms; callers add process facts (uptime, build
// info, cache sizes) with SetGauge before exporting.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]float64  `json:"gauges,omitempty"`
	Histograms map[string]HistView `json:"histograms"`
}

// SetGauge records a point-in-time gauge on the snapshot, labeled like
// the labeled metric calls.
func (s *Snapshot) SetGauge(name string, v float64, labels ...Label) {
	if s.Gauges == nil {
		s.Gauges = make(map[string]float64)
	}
	s.Gauges[seriesKey(name, labels)] = v
}

// Snapshot returns the observer's current metrics. On a disabled
// observer the maps are empty, never nil.
func (o *Observer) Snapshot() Snapshot {
	snap := Snapshot{Counters: o.Counters(), Histograms: make(map[string]HistView)}
	for k, h := range o.Histograms() {
		snap.Histograms[k] = h.View()
	}
	return snap
}
