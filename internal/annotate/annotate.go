// Package annotate implements the automatic annotation stage of
// ObjectRunner (paper §III.B): recognizing instances of the input SOD's
// entity types in page content, scoring pages by annotation richness
// (Eq. 3), ordering types by selectivity estimates (Eq. 2), and greedily
// selecting the sample of top-annotated pages used for wrapper inference
// (Algorithm 1), with a block-level abort condition for sources that do
// not carry the targeted data.
package annotate

import (
	"context"
	"sort"

	"objectrunner/internal/dom"
	"objectrunner/internal/obs"
	"objectrunner/internal/parallel"
	"objectrunner/internal/recognize"
	"objectrunner/internal/render"
	"objectrunner/internal/sod"
	"objectrunner/internal/symtab"
)

// Ann is one annotation: an entity-type label attached to a DOM node whose
// text matched the type's recognizer.
type Ann struct {
	Type       string  // entity type name from the SOD
	Value      string  // the matched instance
	Confidence float64 // recognizer confidence
	Whole      bool    // the match covers the node's entire text
	Propagated bool    // inherited from descendants, not matched here
}

// PageAnnotations holds the annotations of one page, keyed by DOM node.
// Annotations attach to the element containing the matched text and are
// propagated upward along linear paths and uniformly-annotated children
// (paper §III.B).
type PageAnnotations struct {
	Page *dom.Node
	Anns map[*dom.Node][]Ann
}

// Types returns the distinct annotation types on the node.
func (pa *PageAnnotations) Types(n *dom.Node) []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range pa.Anns[n] {
		if !seen[a.Type] {
			seen[a.Type] = true
			out = append(out, a.Type)
		}
	}
	return out
}

// Count returns the total number of direct (non-propagated) annotations on
// the page.
func (pa *PageAnnotations) Count() int {
	n := 0
	for _, as := range pa.Anns {
		for _, a := range as {
			if !a.Propagated {
				n++
			}
		}
	}
	return n
}

// CountType returns the number of direct annotations with the given type.
func (pa *PageAnnotations) CountType(typeName string) int {
	n := 0
	for _, as := range pa.Anns {
		for _, a := range as {
			if a.Type == typeName && !a.Propagated {
				n++
			}
		}
	}
	return n
}

// AnnotatePage runs every recognizer over the page's text nodes and
// returns the resulting annotations. For each text node, a whole-text
// match annotates the parent element; partial matches annotate the parent
// as non-whole hints. Multiple annotations may land on the same node.
func AnnotatePage(page *dom.Node, recs map[string]recognize.Recognizer) *PageAnnotations {
	pa := &PageAnnotations{Page: page, Anns: make(map[*dom.Node][]Ann)}
	// Sorted-name order, not map order: the per-node annotation slices
	// keep insertion order, so iterating the map directly would reorder
	// equal matches between runs.
	names := make([]string, 0, len(recs))
	for name := range recs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		AnnotateType(pa, name, recs[name])
	}
	propagateUp(pa, page)
	return pa
}

// AnnotateType adds the annotations of a single entity type to an existing
// page annotation set (Algorithm 1 processes types one round at a time).
func AnnotateType(pa *PageAnnotations, typeName string, rec recognize.Recognizer) {
	AnnotateTypeRestricted(pa, typeName, rec, false)
}

// AnnotateTypeRestricted is AnnotateType with the whole-node restriction
// of the paper's §II.A footnote 1: when wholeOnly is set, a match
// annotates its node only if it covers the node's entire textual content.
func AnnotateTypeRestricted(pa *PageAnnotations, typeName string, rec recognize.Recognizer, wholeOnly bool) {
	for _, tn := range pa.Page.TextNodes() {
		text := dom.CollapseSpace(tn.Data)
		if text == "" {
			continue
		}
		target := tn.Parent
		if target == nil {
			target = tn
		}
		for _, m := range rec.Find(text) {
			whole := m.Start == 0 && m.End == len(text)
			if wholeOnly && !whole {
				continue
			}
			if hasAnn(pa.Anns[target], typeName, m.Value) {
				continue
			}
			pa.Anns[target] = append(pa.Anns[target], Ann{
				Type:       typeName,
				Value:      m.Value,
				Confidence: m.Confidence,
				Whole:      whole,
			})
		}
	}
}

func hasAnn(as []Ann, typeName, value string) bool {
	for _, a := range as {
		if a.Type == typeName && a.Value == value {
			return true
		}
	}
	return false
}

// propagateUp lifts annotations to ancestors along linear paths (single
// child) or when all element children carry the same annotation type
// (paper §III.B: "Annotations will also be propagated upwards in the DOM
// tree to ancestors as long as these nodes have only one child or all
// children have the same annotation").
func propagateUp(pa *PageAnnotations, page *dom.Node) {
	// Bottom-up: deeper nodes first.
	var order []*dom.Node
	page.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode {
			order = append(order, n)
		}
		return true
	})
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		elems := elementChildren(n)
		if len(elems) == 0 {
			continue
		}
		if len(elems) == 1 && len(n.Children) == 1 {
			// Linear path: inherit everything.
			for _, a := range pa.Anns[elems[0]] {
				if !hasAnn(pa.Anns[n], a.Type, a.Value) {
					a.Propagated = true
					pa.Anns[n] = append(pa.Anns[n], a)
				}
			}
			continue
		}
		// All children share one annotation type: inherit that type.
		common := commonType(pa, elems)
		if common == "" {
			continue
		}
		for _, c := range elems {
			for _, a := range pa.Anns[c] {
				if a.Type == common && !hasAnn(pa.Anns[n], a.Type, a.Value) {
					a.Propagated = true
					pa.Anns[n] = append(pa.Anns[n], a)
				}
			}
		}
	}
}

func elementChildren(n *dom.Node) []*dom.Node {
	var out []*dom.Node
	for _, c := range n.Children {
		if c.Type == dom.ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// commonType returns the single annotation type shared by every node, or
// "" when none exists.
func commonType(pa *PageAnnotations, nodes []*dom.Node) string {
	if len(nodes) == 0 {
		return ""
	}
	counts := make(map[string]int)
	for _, n := range nodes {
		for _, t := range pa.Types(n) {
			counts[t]++
		}
	}
	// Sorted iteration: with several qualifying types, always pick the
	// lexicographically first rather than whichever map order yields.
	types := make([]string, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		if counts[t] == len(nodes) {
			return t
		}
	}
	return ""
}

// TermFreq supplies term frequencies for the tf(i) denominators of Eq. 2
// and Eq. 3. Both the knowledge base and the corpus implement it.
type TermFreq interface {
	TermFrequency(phrase string) float64
}

// constTF is the fallback when no frequency source is configured.
type constTF struct{}

func (constTF) TermFrequency(string) float64 { return 1 }

// tfMemo caches term frequencies under interned phrase symbols for the
// duration of one sample selection. Both KB- and corpus-backed sources
// normalize the phrase on every call (tokenize + join — two allocations);
// Algorithm 1 asks for the same annotation values over and over across
// scoring rounds, so one selection-scoped table amortizes all of it.
// Frequencies are immutable during selection, which makes the cache
// transparent.
type tfMemo struct {
	tf   TermFreq
	tab  *symtab.Table
	vals []float64
}

func newTFMemo(tf TermFreq) *tfMemo {
	if tf == nil {
		tf = constTF{}
	}
	return &tfMemo{tf: tf, tab: symtab.New()}
}

func (m *tfMemo) TermFrequency(phrase string) float64 {
	sym := m.tab.Intern(phrase)
	if n := int(sym) + 1; n > len(m.vals) {
		// append grows the table geometrically; growing it to exactly
		// the new symbol would copy it for every new phrase.
		m.vals = append(m.vals, make([]float64, n-len(m.vals))...)
	}
	if m.vals[sym] == 0 {
		m.vals[sym] = m.tf.TermFrequency(phrase)
	}
	return m.vals[sym]
}

// TypeSelectivity computes the paper's Eq. 2 for a dictionary type:
// score(t) = Σ_{i∈dict} score(i,t)/tf(i). High values mean few, specific
// witness instances — those types are matched first in Algorithm 1.
//
// The estimate is normalised per instance (divided by dictionary size) so
// that huge dictionaries of common words do not dominate compact, highly
// specific ones.
func TypeSelectivity(d *recognize.Dictionary, tf TermFreq) float64 {
	if d == nil || d.Len() == 0 {
		return 0
	}
	if tf == nil {
		tf = constTF{}
	}
	sum := 0.0
	for _, e := range d.Entries() {
		sum += e.Confidence / tf.TermFrequency(e.Value)
	}
	return sum / float64(d.Len())
}

// PageScore computes the paper's Eq. 3 for one type on one page:
// score(page/t) = Σ_{i'∈t in page} score(i,t)/tf(i).
func PageScore(pa *PageAnnotations, typeName string, tf TermFreq) float64 {
	if tf == nil {
		tf = constTF{}
	}
	sum := 0.0
	for _, as := range pa.Anns {
		for _, a := range as {
			if a.Type == typeName && !a.Propagated {
				sum += a.Confidence / tf.TermFrequency(a.Value)
			}
		}
	}
	return sum
}

// MinScore returns the page's minimum score across the given types — the
// ordering criterion of Algorithm 1 ("we order the pages by their minimum
// score with respect to the types that were already processed").
func MinScore(pa *PageAnnotations, types []string, tf TermFreq) float64 {
	min := 0.0
	for i, t := range types {
		s := PageScore(pa, t, tf)
		if i == 0 || s < min {
			min = s
		}
	}
	return min
}

// Params configures Algorithm 1.
type Params struct {
	// SampleSize is k, the number of pages kept for wrapper inference
	// (approximately 20 in the paper).
	SampleSize int
	// Alpha is the block-level abort threshold (50% in the paper): at
	// least one visual block must average more than Alpha annotations per
	// sample page after each round, or the source is discarded.
	Alpha float64
	// Shrink is the fraction of pages kept after each annotation round.
	Shrink float64
	// Workers bounds the worker pool annotating pages concurrently
	// within each round; 0 means one worker per CPU. Pages are
	// independent (annotations attach to per-page state), and rounds
	// stay sequential, so the outcome matches the sequential path.
	Workers int
}

// DefaultParams mirrors the paper's experimental configuration.
func DefaultParams() Params {
	return Params{SampleSize: 20, Alpha: 0.5, Shrink: 0.5}
}

// Result is the outcome of sample selection.
type Result struct {
	// Sample holds the top-k annotated pages, ready for wrapper inference.
	Sample []*PageAnnotations
	// TypeOrder is the processing order chosen by selectivity.
	TypeOrder []string
	// Aborted reports that the source was discarded for unsatisfactory
	// annotation levels, with the reason.
	Aborted     bool
	AbortReason string
}

// SelectSampleCtx runs Algorithm 1: annotate the source's pages type by
// type in decreasing selectivity order, keep shrinking the set to the
// richest pages, abort when no visual block sustains the annotation
// threshold, and return the top-k sample. Each annotation round, the
// per-page Eq. 3 scores of the final sample, and the α-abort events are
// reported to the observer (nil-safe). The per-page annotation fan-outs
// stop dispatching once ctx is canceled, the round loop checks ctx
// between types, and the context error is returned with a nil result.
func SelectSampleCtx(ctx context.Context, pages []*dom.Node, s *sod.Type, recs map[string]recognize.Recognizer, tf TermFreq, p Params, ob *obs.Observer) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.SampleSize <= 0 {
		p.SampleSize = 20
	}
	if p.Shrink <= 0 || p.Shrink >= 1 {
		p.Shrink = 0.5
	}
	// All scoring below shares one selection-scoped frequency cache; the
	// rounds re-score the same annotations repeatedly.
	tf = newTFMemo(tf)
	res := &Result{}
	cur := make([]*PageAnnotations, 0, len(pages))
	for _, pg := range pages {
		cur = append(cur, &PageAnnotations{Page: pg, Anns: make(map[*dom.Node][]Ann)})
	}

	// Order isInstanceOf types by decreasing selectivity estimate; the
	// predefined and regex types are processed afterwards (paper: "Once
	// the top annotated pages are selected over all isInstanceOf types,
	// the predefined and regular expression types are processed").
	dictTypes, otherTypes := splitTypes(s, recs, tf)
	res.TypeOrder = append(append([]string{}, dictTypes...), otherTypes...)
	ob.Event("annotate.type_order", obs.A("order", res.TypeOrder))

	wholeOnly := s.WholeNodeFields()
	processed := make([]string, 0, len(res.TypeOrder))
	for _, tName := range dictTypes {
		if err := parallel.ForEachCtx(ctx, p.Workers, len(cur), func(i int) {
			AnnotateTypeRestricted(cur[i], tName, recs[tName], wholeOnly[tName])
		}); err != nil {
			return nil, err
		}
		processed = append(processed, tName)
		// Keep the richest pages; never go below the sample size.
		keep := int(float64(len(cur)) * p.Shrink)
		if keep < p.SampleSize {
			keep = p.SampleSize
		}
		if keep < len(cur) {
			sortByMinScore(cur, processed, tf)
			cur = cur[:keep]
		}
		ob.Count("annotate.rounds", 1)
		ob.Event("annotate.round", obs.A("type", tName), obs.A("kept", len(cur)))
		// Intermediate abort: with incomplete dictionaries a singleton
		// page yields well under alpha annotations per round, so the
		// full alpha test only runs once every type is processed; rounds
		// in between just require that annotations exist at all.
		if p.Alpha > 0 && !blockCondition(cur, 0) {
			res.Aborted = true
			res.AbortReason = "no annotated visual block after type " + tName
			ob.Count("annotate.alpha_aborts", 1)
			ob.Event("annotate.alpha_abort", obs.A("after_type", tName), obs.A("alpha", 0.0))
			return res, nil
		}
	}
	// Final sample: top-k by minimum score over the dictionary types.
	sortByMinScore(cur, processed, tf)
	if len(cur) > p.SampleSize {
		cur = cur[:p.SampleSize]
	}
	// Predefined and regex types on the sample only. The type rounds must
	// stay ordered (annotation slices append per round), so the fan-out
	// is per page within a round.
	for _, tName := range otherTypes {
		if err := parallel.ForEachCtx(ctx, p.Workers, len(cur), func(i int) {
			AnnotateTypeRestricted(cur[i], tName, recs[tName], wholeOnly[tName])
		}); err != nil {
			return nil, err
		}
	}
	if err := parallel.ForEachCtx(ctx, p.Workers, len(cur), func(i int) {
		propagateUp(cur[i], cur[i].Page)
	}); err != nil {
		return nil, err
	}
	if p.Alpha > 0 && !blockCondition(cur, p.Alpha) {
		res.Aborted = true
		res.AbortReason = "no visual block sustains the annotation threshold after predefined types"
		ob.Count("annotate.alpha_aborts", 1)
		ob.Event("annotate.alpha_abort", obs.A("after_type", "predefined"), obs.A("alpha", p.Alpha))
		return res, nil
	}
	res.Sample = cur
	if ob.Enabled() {
		// Per-page Eq. 3 accounting of the selected sample.
		for i, pa := range cur {
			ob.Event("annotate.page",
				obs.A("rank", i),
				obs.A("min_score", MinScore(pa, processed, tf)),
				obs.A("annotations", pa.Count()))
		}
	}
	return res, nil
}

// splitTypes partitions the SOD's entity types into dictionary-backed
// (isInstanceOf, ordered by decreasing selectivity) and the rest.
func splitTypes(s *sod.Type, recs map[string]recognize.Recognizer, tf TermFreq) (dict, other []string) {
	type sel struct {
		name  string
		score float64
	}
	var sels []sel
	for _, e := range s.EntityTypes() {
		rec := recs[e.Name]
		if d, ok := rec.(*recognize.Dictionary); ok {
			sels = append(sels, sel{e.Name, TypeSelectivity(d, tf)})
			continue
		}
		other = append(other, e.Name)
	}
	// Equal selectivity estimates tie-break on the attribute name so the
	// greedy round order of Algorithm 1 is reproducible across runs.
	sort.SliceStable(sels, func(i, j int) bool {
		if sels[i].score != sels[j].score {
			return sels[i].score > sels[j].score
		}
		return sels[i].name < sels[j].name
	})
	for _, x := range sels {
		dict = append(dict, x.name)
	}
	return dict, other
}

func sortByMinScore(pas []*PageAnnotations, types []string, tf TermFreq) {
	// Primary criterion: the paper's minimum score across processed
	// types. With incomplete dictionaries many relevant pages tie at
	// zero (no known instance of some type on the page), so the total
	// annotation mass breaks ties. Scores are computed once per page up
	// front — the annotation scan is the expensive part, and a comparator
	// recomputing it turns every sort into O(n log n) page scans.
	type ranked struct {
		pa       *PageAnnotations
		min, sum float64
	}
	rs := make([]ranked, len(pas))
	for i, pa := range pas {
		r := ranked{pa: pa}
		for j, t := range types {
			s := PageScore(pa, t, tf)
			if j == 0 || s < r.min {
				r.min = s
			}
			r.sum += s
		}
		rs[i] = r
	}
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].min != rs[j].min {
			return rs[i].min > rs[j].min
		}
		return rs[i].sum > rs[j].sum
	})
	for i := range rs {
		pas[i] = rs[i].pa
	}
}

// blockCondition checks the paper's abort test: for at least one visual
// block (identified across pages by its DOM path), the average number of
// annotations per sample page exceeds alpha.
func blockCondition(sample []*PageAnnotations, alpha float64) bool {
	if len(sample) == 0 {
		return false
	}
	// Blocks are told apart by path, built into one reused buffer: a
	// path is only stored the first time its block is seen.
	index := make(map[string]int)
	var totals []int
	var path []byte
	for _, pa := range sample {
		for n, as := range pa.Anns {
			direct := 0
			for _, a := range as {
				if !a.Propagated {
					direct++
				}
			}
			if direct == 0 {
				continue
			}
			path = blockOf(n).AppendPath(path[:0])
			i, ok := index[string(path)]
			if !ok {
				i = len(totals)
				index[string(path)] = i
				totals = append(totals, 0)
			}
			totals[i] += direct
		}
	}
	k := float64(len(sample))
	for _, total := range totals {
		if float64(total)/k > alpha {
			return true
		}
	}
	return false
}

// blockOf returns n's nearest block-level ancestor (or n itself, also
// when no ancestor is block-level), whose DOM path is the cross-page
// identity of visual blocks.
func blockOf(n *dom.Node) *dom.Node {
	for cur := n; cur != nil; cur = cur.Parent {
		if !render.IsInline(cur) {
			return cur
		}
	}
	return n
}

// SelectRandom is the baseline sampler of the paper's Table II: it takes k
// pages pseudo-randomly (deterministically, from the seed) and annotates
// them with every recognizer.
func SelectRandom(pages []*dom.Node, recs map[string]recognize.Recognizer, k int, seed uint64) *Result {
	if k <= 0 {
		k = 20
	}
	idx := make([]int, len(pages))
	for i := range idx {
		idx[i] = i
	}
	// xorshift shuffle for deterministic, seed-driven selection.
	state := seed | 1
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := len(idx) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
	if k > len(idx) {
		k = len(idx)
	}
	res := &Result{}
	for _, i := range idx[:k] {
		res.Sample = append(res.Sample, AnnotatePage(pages[i], recs))
	}
	return res
}
