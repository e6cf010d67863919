package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the text exposition format the
// snapshot renders.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4):
//
//   - counters as `<name>_total` counter families,
//   - gauges as gauge families,
//   - duration histograms as summary families in seconds —
//     quantile-labeled samples (0.5/0.9/0.95/0.99) plus `_sum` and
//     `_count` — and a companion `_max` gauge family.
//
// Metric names are sanitized to [a-zA-Z0-9_:] (dots become underscores);
// label values were escaped when the series was recorded, so the label
// block of a series key is emitted as-is. The output is deterministic:
// families sorted by name, series sorted within a family — golden tests
// can compare it byte-for-byte.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)

	counterFams, counterSeries := groupSeries(mapKeys(s.Counters))
	for _, base := range counterFams {
		fam := promName(base) + "_total"
		writeHeader(bw, fam, "counter")
		for _, key := range counterSeries[base] {
			writeSample(bw, fam, labelBlock(key), strconv.FormatInt(s.Counters[key], 10))
		}
	}

	gaugeFams, gaugeSeries := groupSeries(mapKeys(s.Gauges))
	for _, base := range gaugeFams {
		fam := promName(base)
		// A value set whole but named as a running total (the Go
		// runtime's, which the server reads at scrape time) is a counter.
		kind := "gauge"
		if strings.HasSuffix(fam, "_total") {
			kind = "counter"
		}
		writeHeader(bw, fam, kind)
		for _, key := range gaugeSeries[base] {
			writeSample(bw, fam, labelBlock(key), formatFloat(s.Gauges[key]))
		}
	}

	histFams, histSeries := groupSeries(mapKeys(s.Histograms))
	for _, base := range histFams {
		fam := promName(base) + "_seconds"
		writeHeader(bw, fam, "summary")
		for _, key := range histSeries[base] {
			h := s.Histograms[key]
			labels := labelBlock(key)
			for _, q := range [...]struct {
				q  string
				ms float64
			}{
				{"0.5", h.P50Ms}, {"0.9", h.P90Ms}, {"0.95", h.P95Ms}, {"0.99", h.P99Ms},
			} {
				writeSample(bw, fam, appendLabel(labels, `quantile="`+q.q+`"`), formatFloat(q.ms/1e3))
			}
			writeSample(bw, fam+"_sum", labels, formatFloat(h.SumMs/1e3))
			writeSample(bw, fam+"_count", labels, strconv.FormatInt(h.Count, 10))
		}
		writeHeader(bw, fam+"_max", "gauge")
		for _, key := range histSeries[base] {
			writeSample(bw, fam+"_max", labelBlock(key), formatFloat(s.Histograms[key].MaxMs/1e3))
		}
	}

	return bw.Flush()
}

func mapKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// groupSeries groups series keys by base metric name: it returns the
// sorted base names and, per base, the sorted series keys.
func groupSeries(keys []string) ([]string, map[string][]string) {
	byBase := make(map[string][]string)
	for _, k := range keys {
		base := k
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base = k[:i]
		}
		byBase[base] = append(byBase[base], k)
	}
	bases := make([]string, 0, len(byBase))
	for b, series := range byBase {
		sort.Strings(series)
		bases = append(bases, b)
	}
	sort.Strings(bases)
	return bases, byBase
}

// labelBlock extracts the rendered label pairs of a series key, without
// the surrounding braces ("" for a plain series).
func labelBlock(key string) string {
	i := strings.IndexByte(key, '{')
	if i < 0 || !strings.HasSuffix(key, "}") {
		return ""
	}
	return key[i+1 : len(key)-1]
}

func appendLabel(block, label string) string {
	if block == "" {
		return label
	}
	return block + "," + label
}

// promName sanitizes a metric name to the exposition charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
			sb.WriteByte(c)
		case c >= '0' && c <= '9' && i > 0:
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func writeHeader(bw *bufio.Writer, fam, typ string) {
	bw.WriteString("# TYPE ")
	bw.WriteString(fam)
	bw.WriteByte(' ')
	bw.WriteString(typ)
	bw.WriteByte('\n')
}

func writeSample(bw *bufio.Writer, fam, labels, value string) {
	bw.WriteString(fam)
	if labels != "" {
		bw.WriteByte('{')
		bw.WriteString(labels)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
