package eqclass

import (
	"cmp"
	"slices"
	"sort"

	"objectrunner/internal/symtab"
)

// SlotProfile summarizes the data observed in one interior slot of an
// equivalence class across the sample: which annotation types appeared,
// how much raw text, and whether distinct types collide there (the
// conflicting-annotation signal used for wrapper self-validation).
type SlotProfile struct {
	// Types counts annotation-type observations on data tokens in the
	// slot; nil when the slot saw none.
	Types map[string]int
	// TextCount counts word tokens seen in the slot.
	TextCount int
	// ChildEQs lists ids of equivalence classes nested in this slot.
	ChildEQs []int
}

// Dominant returns the most frequent type and its share of all type
// observations in the slot ("", 0 when the slot is untyped).
func (s *SlotProfile) Dominant() (string, float64) {
	// Ties go to the smallest type name.
	total, best, bestC := 0, "", 0
	for t, c := range s.Types {
		total += c
		if c > bestC || c == bestC && t < best {
			best, bestC = t, c
		}
	}
	if total == 0 {
		return "", 0
	}
	return best, float64(bestC) / float64(total)
}

// Conflicting reports whether two or more types collide in the slot with
// no sufficiently dominant winner.
func (s *SlotProfile) Conflicting(threshold float64) bool {
	if len(s.Types) < 2 {
		return false
	}
	_, share := s.Dominant()
	return share < threshold
}

// coverage returns the total number of token positions covered by the
// class's tuples, a proxy for structural size used to order nesting
// candidates.
func (e *EQ) coverage() int {
	total := 0
	for _, tups := range e.Tuples {
		for _, t := range tups {
			total += t.Last() - t.First() + 1
		}
	}
	return total
}

// nesting relations between two classes.
const (
	relDisjoint = iota
	relContained
	relConflict
)

// relation determines how class b relates to class a: fully contained in
// one consistent slot, disjoint, or conflicting (straddling separators or
// spread over different slots — such classes are discarded, per
// Algorithm 2's invalid-EQ handling).
func relation(a, b *EQ) (rel int, slot int) {
	slot = -1
	anyInside := false
	anyOutside := false
	for pi := range b.Tuples {
		for _, tb := range b.Tuples[pi] {
			s, status := locate(a.Tuples[pi], tb)
			switch status {
			case relDisjoint:
				anyOutside = true
			case relConflict:
				return relConflict, -1
			case relContained:
				anyInside = true
				if slot == -1 {
					slot = s
				} else if slot != s {
					return relConflict, -1
				}
			}
		}
	}
	switch {
	case anyInside && anyOutside:
		return relConflict, -1
	case anyInside:
		return relContained, slot
	default:
		return relDisjoint, -1
	}
}

// locate finds the slot of a's tuples (on one page) containing tuple tb.
func locate(tuplesA []Tuple, tb Tuple) (slot, status int) {
	for _, ta := range tuplesA {
		if tb.First() > ta.Last() || tb.Last() < ta.First() {
			continue // disjoint from this tuple
		}
		// Overlapping: must sit inside one interior gap.
		for s := 0; s+1 < len(ta.Positions); s++ {
			if tb.First() > ta.Positions[s] && tb.Last() < ta.Positions[s+1] {
				return s, relContained
			}
		}
		return -1, relConflict
	}
	return -1, relDisjoint
}

// BuildHierarchy organizes the analysis's valid classes into a forest by
// span containment, discards classes that straddle others' separators,
// and computes per-slot data profiles. Classes with fewer than two roles
// carry no slots and are excluded.
func BuildHierarchy(a *Analysis) {
	sc := a.scratch()
	byCov := sc.byCov[:0]
	for _, e := range a.EQs {
		if e.K() >= 2 {
			e.Parent, e.Children, e.ParentSlot = nil, nil, -1
			byCov = append(byCov, covEQ{e: e, cov: e.coverage()})
		}
	}
	// Outer classes first; equal coverage falls back to the class id so
	// the containment scan (and therefore parent assignment) never
	// depends on the incoming order. Coverage is precomputed — the
	// comparator runs O(n log n) times.
	slices.SortStableFunc(byCov, func(x, y covEQ) int {
		if c := cmp.Compare(y.cov, x.cov); c != 0 {
			return c
		}
		return cmp.Compare(x.e.ID, y.e.ID)
	})
	sc.byCov = byCov

	kept := make([]*EQ, 0, len(byCov))
	for _, c := range byCov {
		b := c.e
		conflict := false
		var parent *EQ
		parentSlot := -1
		// kept is ordered outer->inner; the last container is innermost.
		for _, cand := range kept {
			rel, slot := relation(cand, b)
			switch rel {
			case relConflict:
				conflict = true
			case relContained:
				parent = cand
				parentSlot = slot
			}
			if conflict {
				break
			}
		}
		if conflict {
			continue
		}
		b.Parent = parent
		b.ParentSlot = parentSlot
		if parent != nil {
			parent.Children = append(parent.Children, b)
		}
		kept = append(kept, b)
	}
	a.EQs = kept
	for _, e := range kept {
		computeOrderHints(e)
		sortChildren(e)
	}
	computeSlotProfiles(a)
}

// covEQ pairs a class with its coverage for BuildHierarchy's ordering.
type covEQ struct {
	e   *EQ
	cov int
}

// computeDescOrdinals learns, for each separator of each class, its
// occurrence index among structurally identical tokens within one
// repetition of the class (the extraction-time disambiguator for
// annotation-differentiated roles). The most frequent index across the
// sample's tuples wins.
func computeDescOrdinals(a *Analysis) {
	// Intern structural signatures once per token, per page. The key is
	// the symbol triple, not the strings — occurrences and descriptors
	// both carry Val/Pth from the analysis table at this point.
	type sigKey struct {
		kind     TokKind
		val, pth symtab.Sym
	}
	sigID := make(map[sigKey]int)
	pageSigs := make([][]int, len(a.Pages))
	intern := func(k sigKey) int {
		if id, ok := sigID[k]; ok {
			return id
		}
		id := len(sigID) + 1
		sigID[k] = id
		return id
	}
	for pi, page := range a.Pages {
		pageSigs[pi] = make([]int, len(page))
		for i, o := range page {
			pageSigs[pi][i] = intern(sigKey{o.Kind, o.Val, o.Pth})
		}
	}
	counts := make(map[int]int)
	for _, e := range a.EQs {
		descSig := make([]int, len(e.Descs))
		for k, d := range e.Descs {
			descSig[k] = intern(sigKey{d.Kind, d.Val, d.Pth})
		}
		votes := make([]map[int]int, len(e.Descs))
		for k := range votes {
			votes[k] = make(map[int]int)
		}
		for pi, tups := range e.Tuples {
			sigs := pageSigs[pi]
			for _, t := range tups {
				// One forward pass per tuple: running count per signature.
				for s := range counts {
					delete(counts, s)
				}
				k := 0
				for j := t.Positions[0]; j <= t.Last() && j < len(sigs); j++ {
					counts[sigs[j]]++
					for k < len(t.Positions) && t.Positions[k] == j {
						votes[k][counts[descSig[k]]]++
						k++
					}
				}
			}
		}
		for k := range e.Descs {
			best, bestC := 0, 0
			for ord, c := range votes[k] {
				if c > bestC || c == bestC && ord < best {
					best, bestC = ord, c
				}
			}
			e.Descs[k].Ordinal = best
		}
	}
}

// computeOrderHints sets each child's average offset from the start of
// the parent tuple containing it.
func computeOrderHints(parent *EQ) {
	for _, c := range parent.Children {
		total, n := 0.0, 0
		for pi := range c.Tuples {
			for _, tb := range c.Tuples[pi] {
				for _, ta := range parent.Tuples[pi] {
					if tb.First() > ta.First() && tb.Last() < ta.Last() {
						total += float64(tb.First() - ta.First())
						n++
						break
					}
				}
			}
		}
		if n > 0 {
			c.OrderHint = total / float64(n)
		}
	}
}

func sortChildren(e *EQ) {
	sort.SliceStable(e.Children, func(i, j int) bool {
		a, b := e.Children[i], e.Children[j]
		if a.ParentSlot != b.ParentSlot {
			return a.ParentSlot < b.ParentSlot
		}
		if a.OrderHint != b.OrderHint {
			return a.OrderHint < b.OrderHint
		}
		return a.ID < b.ID
	})
}

// Multiplicity returns the per-parent-tuple repetition counts of a child
// class: constant reports whether every parent tuple contains the same
// number of child tuples, and c is that count (the maximum seen when not
// constant). A child with varying multiplicity is a true iterator (a
// record list); a child with constant multiplicity c >= 2 is structural
// repetition whose token roles must be differentiated by ordinal instead.
func Multiplicity(parent, child *EQ) (constant bool, c int) {
	// A class's tuples on one page follow each other without overlap, so
	// a child tuple lies inside at most one parent tuple.
	constant = true
	seen := false
	for pi, tups := range parent.Tuples {
		var kids []Tuple
		if pi < len(child.Tuples) {
			kids = child.Tuples[pi]
		}
		for _, ta := range tups {
			n := 0
			for _, tb := range kids {
				if tb.First() > ta.First() && tb.Last() < ta.Last() {
					n++
				}
			}
			switch {
			case n == 0:
				// Parent tuples with zero children break constancy.
				constant = false
			case !seen:
				c, seen = n, true
			case n != c:
				constant = false
				c = max(c, n)
			}
		}
	}
	return constant, c
}

// TopEQs returns the hierarchy's root classes (outermost first).
func (a *Analysis) TopEQs() []*EQ {
	var out []*EQ
	for _, e := range a.EQs {
		if e.Parent == nil {
			out = append(out, e)
		}
	}
	return out
}

// SlotProfilesOf returns the computed slot profiles of a class.
func (a *Analysis) SlotProfilesOf(e *EQ) []SlotProfile {
	return a.profiles[e.ID]
}

// computeSlotProfiles paints innermost scopes with the hierarchy's
// classes, keeping the painting for the differentiate call that follows,
// and aggregates the data tokens of each slot.
func computeSlotProfiles(a *Analysis) {
	a.profiles = make(map[int][]SlotProfile, len(a.EQs))
	nslots := 0
	for _, e := range a.EQs {
		nslots += e.Slots()
	}
	// One arena in hierarchy slot order: a scope's slot indexes it.
	arena := make([]SlotProfile, nslots)
	rest := arena
	for _, e := range a.EQs {
		ps := rest[:e.Slots():e.Slots()]
		rest = rest[e.Slots():]
		a.profiles[e.ID] = ps
		for _, c := range e.Children {
			if c.ParentSlot >= 0 && c.ParentSlot < len(ps) {
				ps[c.ParentSlot].ChildEQs = append(ps[c.ParentSlot].ChildEQs, c.ID)
			}
		}
	}
	// Separator roles of the hierarchy.
	sc := a.scratch()
	sc.sepRoles = resize(sc.sepRoles, a.roleCount())
	sepRoles := sc.sepRoles
	clear(sepRoles)
	for _, e := range a.EQs {
		for _, r := range e.Roles {
			sepRoles[r] = true
		}
	}
	scopes := a.computeScopes()
	a.scopes = scopes
	off, roles := a.layout(), a.roleIDs()
	for pi, page := range a.Pages {
		for i, o := range page {
			gi := off[pi] + i
			in := scopes[gi]
			if in.slot < 0 || sepRoles[roles[gi]] {
				continue
			}
			p := &arena[in.slot]
			if o.Kind == KindWord {
				p.TextCount++
			}
			for _, t := range o.Types {
				if p.Types == nil {
					p.Types = make(map[string]int)
				}
				p.Types[t]++
			}
		}
	}
}
