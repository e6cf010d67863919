package template

import (
	"strings"

	"objectrunner/internal/eqclass"
	"objectrunner/internal/sod"
	"objectrunner/internal/symtab"
)

// Scratch holds the reusable buffers of one extraction pass: the slot
// table of the descriptor sequence being located and its per-slot
// occurrence counts, a bump arena for tuple positions, a free list of
// span slices, and the word/part/range accumulators. A Scratch is not
// safe for concurrent use; the serving path keeps one per worker in a
// pool. Token positions handed out by allocInts stay valid until the
// next Reset, so extracted instances (which copy text into strings)
// never alias scratch memory.
type Scratch struct {
	slots  slotTable
	counts []int32       // matchOnce's occurrence count per slot
	ints   [][]int       // bump-allocated position storage, chunked
	free   [][]tupleSpan // recycled span-slice backing buffers
	words  []string
	parts  []string
	ranges [][2]int
}

// NewScratch returns an empty scratch ready for extraction.
func NewScratch() *Scratch {
	return &Scratch{}
}

// Reset recycles all position storage. Spans handed out before the call
// become invalid; extracted instances are unaffected.
func (sc *Scratch) Reset() {
	for i := range sc.ints {
		sc.ints[i] = sc.ints[i][:0]
	}
}

// allocInts bump-allocates a zero-length int slice with capacity n from
// the current chunk, growing the chunk list geometrically on overflow.
func (sc *Scratch) allocInts(n int) []int {
	if k := len(sc.ints); k > 0 {
		c := sc.ints[k-1]
		if cap(c)-len(c) >= n {
			sc.ints[k-1] = c[:len(c)+n]
			return c[len(c) : len(c) : len(c)+n]
		}
	}
	size := 1024
	if k := len(sc.ints); k > 0 && 2*cap(sc.ints[k-1]) > size {
		size = 2 * cap(sc.ints[k-1])
	}
	if n > size {
		size = n
	}
	c := make([]int, n, size)
	sc.ints = append(sc.ints, c)
	return c[:0:n]
}

// getSpans hands out an empty span slice, recycling a returned buffer
// when one is available.
func (sc *Scratch) getSpans() []tupleSpan {
	if k := len(sc.free); k > 0 {
		b := sc.free[k-1]
		sc.free = sc.free[:k-1]
		return b[:0]
	}
	return make([]tupleSpan, 0, 8)
}

// putSpans returns a span slice's backing buffer to the free list. The
// caller must be done with the slice header itself; span values copied
// out remain valid (their positions live in the int arena).
func (sc *Scratch) putSpans(b []tupleSpan) {
	if b != nil {
		sc.free = append(sc.free, b)
	}
}

// Extract applies a match to one page's token sequence and returns the
// extracted SOD instances: one instance per (class tuple × repeated
// group). The page need not belong to the inference sample — only the
// match's separator descriptors are used to locate the template on it.
func Extract(s *sod.Type, m *Match, toks []*eqclass.Occurrence) []*sod.Instance {
	return extractWith(s, m, toks, NewScratch())
}

func extractWith(s *sod.Type, m *Match, toks []*eqclass.Occurrence, sc *Scratch) []*sod.Instance {
	var out []*sod.Instance
	spans := findTuples(toks, m.Node, 0, len(toks), sc)
	for _, span := range spans {
		if inst := extractGroup(m.Tuple, m, toks, span, sc); inst != nil {
			out = append(out, inst)
		}
	}
	sc.putSpans(spans)
	return out
}

// boundChildren collects the nested classes the match binds fields or
// sets to: their spans are excluded from sibling direct-slot text (they
// hold other fields' values), while unbound classes stay included (their
// structural match may cover this field's own words).
func boundChildren(m *Match) map[*Node]bool {
	out := make(map[*Node]bool)
	for _, bs := range m.Fields {
		for _, b := range bs {
			if len(b.Path) > 0 {
				out[b.Path[0]] = true
			}
		}
	}
	for _, sb := range m.Sets {
		if sb != nil && sb.Child != nil {
			out[sb.Child] = true
		}
	}
	return out
}

// childRanks resolves extraction ambiguity between annotation-split
// roles: children of one slot whose separator descriptors are
// structurally identical (same tags, same paths) cannot be told apart on
// an unseen page, so each bound child takes the candidate span at its
// rank in template order (EQ.OrderHint).
func childRanks(m *Match) map[*Node]int {
	type key struct {
		slot int
		sig  string
	}
	groups := make(map[key][]*Node)
	seen := make(map[*Node]bool)
	add := func(c *Node) {
		if c == nil || seen[c] {
			return
		}
		seen[c] = true
		k := key{c.EQ.ParentSlot, descSig(c)}
		groups[k] = append(groups[k], c)
	}
	for _, bs := range m.Fields {
		for _, b := range bs {
			if len(b.Path) > 0 {
				add(b.Path[0])
			}
		}
	}
	for _, sb := range m.Sets {
		if sb != nil {
			add(sb.Child)
		}
	}
	ranks := make(map[*Node]int)
	for _, g := range groups {
		for i := 1; i < len(g); i++ {
			for j := i; j > 0 && g[j].EQ.OrderHint < g[j-1].EQ.OrderHint; j-- {
				g[j], g[j-1] = g[j-1], g[j]
			}
		}
		for i, c := range g {
			ranks[c] = i
		}
	}
	return ranks
}

// fieldOrder maps field names (and disjunction alternative names) to
// their tuple declaration rank, for stable child ordering.
func fieldOrder(tuple *sod.Type) map[string]int {
	rank := make(map[string]int)
	if tuple == nil {
		return rank
	}
	for i, f := range tuple.Fields {
		rank[f.Name] = i
		if f.Kind == sod.KindDisjunction {
			for _, alt := range f.Fields {
				rank[alt.Name] = i
			}
		}
	}
	return rank
}

// descSig is the structural signature of a class's separators.
func descSig(n *Node) string {
	var sb strings.Builder
	for _, d := range n.EQ.Descs {
		sb.WriteString(d.String())
		sb.WriteByte(' ')
	}
	return sb.String()
}

// ExtractAll runs every match over the page and concatenates the results.
func ExtractAll(s *sod.Type, matches []*Match, toks []*eqclass.Occurrence) []*sod.Instance {
	return ExtractAllStream(s, matches, toks, NewScratch())
}

// ExtractAllStream is ExtractAll with caller-provided scratch: the
// streaming serve path pools Scratch values per worker so a cache-hit
// extract allocates nothing while locating tuples. The scratch is Reset
// on entry; returned instances never alias it.
func ExtractAllStream(s *sod.Type, matches []*Match, toks []*eqclass.Occurrence, sc *Scratch) []*sod.Instance {
	sc.Reset()
	var out []*sod.Instance
	for _, m := range matches {
		out = append(out, extractWith(s, m, toks, sc)...)
	}
	return out
}

// tupleSpan is one located repetition of a class on a page: the token
// positions of its separators.
type tupleSpan struct {
	positions []int
}

// slotRange returns the token range (exclusive bounds) of interior slot i.
func (ts tupleSpan) slotRange(i int) (int, int) {
	return ts.positions[i], ts.positions[i+1]
}

// findTuples locates repetitions of n's separator sequence on the page
// by greedy forward matching of the descriptors (kind, value, DOM path)
// within [from, to). The returned slice's buffer belongs to the scratch:
// callers release it with putSpans once done with the headers.
func findTuples(toks []*eqclass.Occurrence, n *Node, from, to int, sc *Scratch) []tupleSpan {
	out := sc.getSpans()
	descs := n.EQ.Descs
	sc.slots.bind(descs)
	for i := from; ; {
		span, next, ok := matchOnce(toks, descs, i, to, sc)
		if !ok {
			break
		}
		out = append(out, span)
		i = next
	}
	sc.slots.unbind(descs)
	return out
}

// slotTable indexes a descriptor sequence for matchOnce. Each distinct
// structural signature (kind, value symbol, path symbol) among the
// descriptors is one slot. A token finds its slot through head, indexed
// by its value symbol, then along a chain of the slots sharing that
// value, compared on kind and path. Tokens and descriptors must carry
// symbols from the same table (the owning wrapper's); a token the table
// never saw holds symtab.None, which no learned descriptor carries.
//
// The table lives on the scratch and is bound to one sequence for one
// findTuples call: binding costs a pass over the descriptors, far fewer
// than the tokens the call then scans, and nothing is kept per template
// node — no allocation when a wrapper serves its first page, and
// nothing to invalidate when InternDescs rebinds the descriptors.
type slotTable struct {
	head  []int32 // head[val]: 1 + first slot with value symbol val, 0 if none
	slots []slotSig
	of    []int32 // of[di]: the slot of descriptor di
}

// slotSig is one slot's kind and path, and the chain link to the next
// slot with the same value symbol (1 + its index, 0 at the end).
type slotSig struct {
	kind eqclass.TokKind
	pth  symtab.Sym
	next int32
}

// bind makes st the slot table of descs. head must hold no entry.
func (st *slotTable) bind(descs []eqclass.Desc) {
	if cap(st.of) < len(descs) {
		st.of = make([]int32, len(descs))
	}
	head, slots, of := st.head, st.slots[:0], st.of[:len(descs)]
	for di := range descs {
		d := &descs[di]
		if int(d.Val) >= len(head) {
			head = append(head, make([]int32, int(d.Val)+1-len(head))...)
		}
		s := slotOf(head, slots, d.Kind, d.Val, d.Pth)
		if s < 0 {
			slots = append(slots, slotSig{kind: d.Kind, pth: d.Pth, next: head[d.Val]})
			s = int32(len(slots) - 1)
			head[d.Val] = s + 1
		}
		of[di] = s
	}
	st.head, st.slots, st.of = head, slots, of
}

// unbind clears the head entries bind set for descs.
func (st *slotTable) unbind(descs []eqclass.Desc) {
	for di := range descs {
		st.head[descs[di].Val] = 0
	}
}

// slotOf returns the slot of signature (kind, val, pth) in a slot table
// given by its head and slots, or -1 when it has none.
func slotOf(head []int32, slots []slotSig, kind eqclass.TokKind, val, pth symtab.Sym) int32 {
	if int(val) >= len(head) {
		return -1
	}
	for s := head[val]; s != 0; s = slots[s-1].next {
		if e := &slots[s-1]; e.kind == kind && e.pth == pth {
			return s - 1
		}
	}
	return -1
}

// matchOnce finds one full descriptor sequence starting at or after i.
// Ordinal-bearing descriptors bind to the n-th occurrence of their
// structural signature within the tuple, counted from the anchor — this
// tells apart separators that annotations differentiated during
// inference but that look identical on an unseen page. Occurrences are
// counted per slot of the scratch's slot table, which findTuples bound
// to descs: a token costs an array load and a short chain walk.
func matchOnce(toks []*eqclass.Occurrence, descs []eqclass.Desc, i, to int, sc *Scratch) (tupleSpan, int, bool) {
	if len(descs) == 0 {
		return tupleSpan{}, to, false
	}
	st := &sc.slots
	// The counts are scratch-owned and never nested: matchOnce calls
	// nothing that matches.
	if cap(sc.counts) < len(st.slots) {
		sc.counts = make([]int32, len(st.slots))
	}
	counts := sc.counts[:len(st.slots)]
	clear(counts)
	head, slots := st.head, st.slots
	positions := sc.allocInts(len(descs))
	for di := range descs {
		slot := st.of[di]
		want := descs[di].Ordinal
		if want <= 0 {
			want = int(counts[slot]) + 1 // "next match"
		}
		found := -1
		for ; i < to; i++ {
			o := toks[i]
			s := slotOf(head, slots, o.Kind, o.Val, o.Pth)
			if s < 0 {
				continue
			}
			counts[s]++
			if s == slot && int(counts[s]) >= want {
				found = i
				break
			}
		}
		if found < 0 {
			return tupleSpan{}, to, false
		}
		positions = append(positions, found)
		i = found + 1
		if di == 0 {
			// Anchor: ordinal counting restarts at the tuple head.
			clear(counts)
			counts[slot] = 1
		}
	}
	return tupleSpan{positions: positions}, i, true
}

// extractGroup builds one SOD instance from a located tuple span, using
// the match's field and set bindings. Instances missing a required
// component are dropped (nil).
func extractGroup(tuple *sod.Type, m *Match, toks []*eqclass.Occurrence, span tupleSpan, sc *Scratch) *sod.Instance {
	ranks, excl, order := m.extractCaches()
	inst := &sod.Instance{Type: tuple}
	bound := make(map[*sod.Type]bool)
	for f, bindings := range m.Fields {
		text := bindingsText(m.Node, toks, span, bindings, ranks, excl, sc)
		if text == "" {
			continue
		}
		inst.Children = append(inst.Children, sod.NewValue(f, text))
		bound[f] = true
	}
	for f, b := range m.Sets {
		set := extractSet(f, b, toks, span, sc)
		if set == nil || len(set.Children) == 0 {
			continue
		}
		inst.Children = append(inst.Children, set)
		bound[f] = true
	}
	for _, f := range tuple.Fields {
		if f.Optional || bound[f] {
			continue
		}
		if f.Kind == sod.KindDisjunction {
			// Disjunctions were resolved at match time; the resolved
			// alternative is a distinct *Type key in m.Fields, accounted
			// for above via its own binding.
			continue
		}
		if f.Kind == sod.KindSet && f.Mult.Min == 0 {
			continue
		}
		return nil
	}
	if len(inst.Children) == 0 {
		return nil
	}
	orderChildren(inst, order)
	return inst
}

// orderChildren sorts instance children into the tuple's declaration
// order (precomputed as a name→rank map) for stable output.
func orderChildren(inst *sod.Instance, rank map[string]int) {
	sortStable(inst.Children, func(a, b *sod.Instance) bool {
		return rank[a.Type.Name] < rank[b.Type.Name]
	})
}

func sortStable(xs []*sod.Instance, less func(a, b *sod.Instance) bool) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// bindingsText concatenates the text located by each field binding.
func bindingsText(owner *Node, toks []*eqclass.Occurrence, span tupleSpan, bindings []FieldBinding, ranks map[*Node]int, excl map[*Node]bool, sc *Scratch) string {
	parts := sc.parts[:0]
	for _, b := range bindings {
		if text := bindingText(owner, toks, span, b, ranks, excl, sc); text != "" {
			parts = append(parts, text)
		}
	}
	out := strings.Join(parts, " ")
	sc.parts = parts[:0]
	return out
}

// bindingText resolves one binding: descend through the nested classes of
// the binding path, narrowing at each step to the slot of the enclosing
// class the child nests in, then read the final slot.
func bindingText(owner *Node, toks []*eqclass.Occurrence, span tupleSpan, b FieldBinding, ranks map[*Node]int, excl map[*Node]bool, sc *Scratch) string {
	cur := span
	for hop, node := range b.Path {
		from, to := cur.positions[0], cur.positions[len(cur.positions)-1]
		if s := node.EQ.ParentSlot; s >= 0 && s+1 < len(cur.positions) {
			from, to = cur.slotRange(s)
		}
		spans := findTuples(toks, node, from+1, to, sc)
		want := 0
		if hop == 0 {
			want = ranks[node]
		}
		if want >= len(spans) {
			sc.putSpans(spans)
			return ""
		}
		cur = spans[want] // copy the header before releasing the buffer
		sc.putSpans(spans)
		owner = node
	}
	return innerSlotText(owner, toks, cur, b.Slot, excl, sc)
}

// innerSlotText reads a slot's direct text, excluding the spans of
// classes nested in it — mirroring how slot profiles attribute words to
// their innermost class during inference.
func innerSlotText(owner *Node, toks []*eqclass.Occurrence, span tupleSpan, slot int, excl map[*Node]bool, sc *Scratch) string {
	if slot+1 >= len(span.positions) {
		return ""
	}
	from, to := span.slotRange(slot)
	ranges := sc.ranges[:0]
	if owner != nil {
		for _, c := range owner.Children {
			if c.EQ.ParentSlot != slot || !excl[c] {
				continue
			}
			cspans := findTuples(toks, c, from+1, to, sc)
			for _, cs := range cspans {
				ranges = append(ranges, [2]int{cs.positions[0], cs.positions[len(cs.positions)-1]})
			}
			sc.putSpans(cspans)
		}
	}
	words := sc.words[:0]
	for i := from + 1; i < to; i++ {
		if toks[i].Kind != eqclass.KindWord {
			continue
		}
		skip := false
		for _, e := range ranges {
			if i >= e[0] && i <= e[1] {
				skip = true
				break
			}
		}
		if !skip {
			words = append(words, toks[i].Raw)
		}
	}
	out := strings.Join(words, " ")
	sc.words, sc.ranges = words[:0], ranges[:0]
	return out
}

// slotsText concatenates the word content of the given slots of a span.
func slotsText(toks []*eqclass.Occurrence, span tupleSpan, slots []int, sc *Scratch) string {
	words := sc.words[:0]
	for _, s := range slots {
		if s+1 >= len(span.positions) {
			continue
		}
		from, to := span.slotRange(s)
		for i := from + 1; i < to; i++ {
			if toks[i].Kind == eqclass.KindWord {
				words = append(words, toks[i].Raw)
			}
		}
	}
	out := strings.Join(words, " ")
	sc.words = words[:0]
	return out
}

// extractSet materializes a set instance from its binding.
func extractSet(f *sod.Type, b *SetBinding, toks []*eqclass.Occurrence, span tupleSpan, sc *Scratch) *sod.Instance {
	set := &sod.Instance{Type: f}
	addEntity := func(text string) {
		for _, v := range SplitList(text) {
			set.Children = append(set.Children, sod.NewValue(f.Elem, v))
		}
	}
	// Inline case: typed slots of the parent node hold the members.
	if len(b.Slots) > 0 {
		for _, s := range b.Slots {
			if text := slotsText(toks, span, []int{s}, sc); text != "" {
				addEntity(text)
			}
		}
		return set
	}
	// Nested case: each child-class tuple inside the span is one member.
	if b.Child == nil {
		return set
	}
	from, to := span.positions[0], span.positions[len(span.positions)-1]
	childSpans := findTuples(toks, b.Child, from+1, to, sc)
	for _, childSpan := range childSpans {
		if b.ElemMatch != nil {
			if inst := extractGroup(b.ElemMatch.Tuple, b.ElemMatch, toks, childSpan, sc); inst != nil {
				inst.Type = f.Elem
				set.Children = append(set.Children, inst)
			}
			continue
		}
		if text := slotsText(toks, childSpan, b.ElemSlots, sc); text != "" {
			addEntity(text)
		}
	}
	sc.putSpans(childSpans)
	return set
}

// SplitList splits an inline list of set members on the separators that
// template-generated pages use between co-listed values: commas,
// semicolons and the word "and" (the Amazon author lists of paper
// Fig. 2(a): "Jane Austen and Fiona Stafford").
func SplitList(text string) []string {
	fields := strings.FieldsFunc(text, func(r rune) bool { return r == ',' || r == ';' })
	var out []string
	for _, f := range fields {
		for _, part := range strings.Split(f, " and ") {
			part = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(part), "and "))
			if part != "" {
				out = append(out, part)
			}
		}
	}
	return out
}
