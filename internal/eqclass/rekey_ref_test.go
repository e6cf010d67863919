package eqclass

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"objectrunner/internal/symtab"
)

// This file keeps the map-keyed differentiation step as a test-only
// reference — keys hashed per occurrence, slot minima and ordinals
// counted in maps, gaps painted widest first after a per-page sort — and
// checks the array-only step against it.

// refScope is the reference painting's innermost (class, tuple, slot).
type refScope struct{ eq, tuple, slot int }

// refGap is one interior slot span of a class tuple.
type refGap struct {
	from, to int // token positions, exclusive bounds
	sc       refScope
}

// refPaint paints every class of a.EQs gap by gap, wider gaps first (then
// by position, class and slot), so inner gaps overwrite outer ones.
func refPaint(a *Analysis) [][]refScope {
	rows := make([][]refScope, len(a.Pages))
	for pi, page := range a.Pages {
		var gaps []refGap
		for _, e := range a.EQs {
			if e.K() < 2 || pi >= len(e.Tuples) {
				continue
			}
			for ti, t := range e.Tuples[pi] {
				for s := 0; s+1 < len(t.Positions); s++ {
					gaps = append(gaps, refGap{t.Positions[s], t.Positions[s+1], refScope{e.ID, ti, s}})
				}
			}
		}
		slices.SortFunc(gaps, func(x, y refGap) int {
			if wx, wy := x.to-x.from, y.to-y.from; wx != wy {
				return cmp.Compare(wy, wx)
			}
			if c := cmp.Compare(x.from, y.from); c != 0 {
				return c
			}
			if c := cmp.Compare(x.sc.eq, y.sc.eq); c != 0 {
				return c
			}
			return cmp.Compare(x.sc.slot, y.sc.slot)
		})
		row := make([]refScope, len(page))
		for i := range row {
			row[i] = refScope{eq: -1}
		}
		for _, g := range gaps {
			for p := g.from + 1; p < g.to; p++ {
				row[p] = g.sc
			}
		}
		rows[pi] = row
	}
	return rows
}

// checkPainting compares the hierarchy-order painting (flat, hierarchy
// slot numbering) with the reference painting position by position.
func checkPainting(a *Analysis, got []scope) error {
	type slotOf struct{ eq, slot int }
	var slots []slotOf
	for _, e := range a.EQs {
		for s := range e.Slots() {
			slots = append(slots, slotOf{e.ID, s})
		}
	}
	want := refPaint(a)
	off := a.layout()
	for pi, row := range want {
		for i, w := range row {
			g := got[off[pi]+i]
			conv := refScope{eq: -1}
			if g.slot >= 0 {
				conv = refScope{slots[g.slot].eq, int(g.tuple), slots[g.slot].slot}
			}
			if conv != w {
				return fmt.Errorf("page %d position %d: painted %+v, reference %+v", pi, i, conv, w)
			}
		}
	}
	return nil
}

// refKey is the reference's role key: HTML features, the positional
// refinement tagged with a generation, the annotation label, and the
// role before the step.
type refKey struct {
	kind          TokKind
	val, pth      symtab.Sym
	gen           int32
	eq, slot, ord int32
	ann           symtab.Sym
	prev          int32
}

// refDifferentiate is the map-keyed differentiation step on a fork of a:
// it returns the first-seen numbering of the reference keys. A frozen
// role's key is its HTML features with the label and the previous role
// (the step it replaces kept the role's previous key, which is one value
// per role just the same).
func refDifferentiate(a *Analysis, conflicting bool) ([]int32, int) {
	rows := refPaint(a)
	frozen := make(map[int]bool)
	for _, e := range a.EQs {
		freeze := true
		if a.params.UseAnnotations && e.Parent != nil {
			if constant, c := Multiplicity(e.Parent, e); constant && c >= 2 {
				freeze = false
			}
		}
		if freeze {
			for _, r := range e.Roles {
				frozen[r] = true
			}
		}
	}
	type rsKey struct{ role, eq, slot int }
	type run struct{ page, tuple, count, min int }
	runs := make(map[rsKey]run)
	for pi, page := range a.Pages {
		for i, o := range page {
			in, role := rows[pi][i], a.Role(o)
			if in.eq < 0 || frozen[role] {
				continue
			}
			k := rsKey{role, in.eq, in.slot}
			ag, ok := runs[k]
			switch {
			case !ok:
				ag = run{pi, in.tuple, 1, -1}
			case ag.page == pi && ag.tuple == in.tuple:
				ag.count++
			default:
				if ag.min < 0 || ag.count < ag.min {
					ag.min = ag.count
				}
				ag.page, ag.tuple, ag.count = pi, in.tuple, 1
			}
			runs[k] = ag
		}
	}
	minima := make(map[rsKey]int)
	for k, ag := range runs {
		m := ag.count
		if ag.min >= 0 && ag.min < m {
			m = ag.min
		}
		minima[k] = m
	}
	stats := a.stats
	if stats == nil {
		stats = a.computeRoleStats()
	}
	labels := a.annotationSyms(stats, conflicting)
	type ordScope struct{ page, eq, tuple, slot, role int }
	ordinals := make(map[ordScope]int)
	ids := make(map[refKey]int32)
	out := make([]int32, a.total())
	gi := 0
	for pi, page := range a.Pages {
		for i, o := range page {
			role := a.Role(o)
			k := refKey{kind: o.Kind, val: o.Val, pth: o.Pth, prev: int32(role)}
			if labels != nil {
				k.ann = labels[gi]
			}
			if in := rows[pi][i]; !frozen[role] && in.eq >= 0 {
				m := minima[rsKey{role, in.eq, in.slot}]
				os := ordScope{pi, in.eq, in.tuple, in.slot, role}
				ordinals[os]++
				ord := min(ordinals[os], m+1)
				k.gen, k.eq, k.slot, k.ord = 1, int32(in.eq), int32(in.slot), int32(ord)
			}
			id, ok := ids[k]
			if !ok {
				id = int32(len(ids))
				ids[k] = id
			}
			out[gi] = id
			gi++
		}
	}
	return out, len(ids)
}

// fork copies the state a differentiation step reads, so the step can
// run on the copy without touching the analysis (the copy gets a
// scratch of its own; the round's statistics and painting are shared
// read-only).
func fork(a *Analysis) *Analysis {
	return &Analysis{
		Pages: a.Pages, EQs: a.EQs, params: a.params, tab: a.tab,
		nRoles: a.nRoles, roles: slices.Clone(a.roles), pageOff: a.pageOff,
		stats: a.stats, scopes: a.scopes,
	}
}

// checkRound checks one analysis round, between BuildHierarchy and the
// differentiation step, against the reference: the painting position by
// position, and the numbering both steps (non-conflicting and
// conflicting annotations) induce. It reports how many of the two steps
// split a role.
func checkRound(a *Analysis) (splits int, err error) {
	if err := checkPainting(a, a.scopes); err != nil {
		return 0, err
	}
	for _, conflicting := range []bool{false, true} {
		want, n := refDifferentiate(fork(a), conflicting)
		f := fork(a)
		changed := f.differentiate(conflicting)
		f.releaseScratch()
		if !slices.Equal(f.roles, want) || f.nRoles != n {
			return 0, fmt.Errorf("conflicting=%v: roles differ from the reference (%d vs %d roles)", conflicting, f.nRoles, n)
		}
		if changed != (n != a.nRoles) {
			return 0, fmt.Errorf("conflicting=%v: changed=%v with %d → %d roles", conflicting, changed, a.nRoles, n)
		}
		if changed {
			splits++
		}
	}
	return splits, nil
}

// randomLaminar builds an analysis over random pages holding random
// classes: some placed inside the gaps of an earlier class's tuples,
// some anywhere (BuildHierarchy discards the ones that straddle).
func randomLaminar(rng *rand.Rand) *Analysis {
	np := 1 + rng.Intn(3)
	pages := make([][]*Occurrence, np)
	for pi := range pages {
		page := make([]*Occurrence, 20+rng.Intn(60))
		for i := range page {
			page[i] = &Occurrence{Kind: KindWord, Value: "w", Path: "p", Page: pi, Pos: i}
		}
		pages[pi] = page
	}
	// tuples places up to n non-overlapping k-separator tuples in [lo, hi).
	tuples := func(lo, hi, k, n int) []Tuple {
		var out []Tuple
		for range n {
			if hi-lo < k {
				break
			}
			span := k + rng.Intn(hi-lo-k+1)
			start := lo + rng.Intn(hi-lo-span+1)
			pos := rng.Perm(span)[:k]
			for i := range pos {
				pos[i] += start
			}
			slices.Sort(pos)
			out = append(out, Tuple{Positions: pos})
			lo = pos[k-1] + 1
		}
		return out
	}
	var eqs []*EQ
	for id := 1; id <= 2+rng.Intn(8); id++ {
		k := 2 + rng.Intn(3)
		tups := make([][]Tuple, np)
		var parent *EQ
		if len(eqs) > 0 && rng.Intn(3) > 0 {
			parent = eqs[rng.Intn(len(eqs))]
		}
		for pi := range tups {
			if parent == nil {
				tups[pi] = tuples(0, len(pages[pi]), k, 1+rng.Intn(3))
				continue
			}
			for _, pt := range parent.Tuples[pi] {
				s := rng.Intn(len(pt.Positions) - 1)
				tups[pi] = append(tups[pi], tuples(pt.Positions[s]+1, pt.Positions[s+1], k, 1+rng.Intn(2))...)
			}
		}
		eqs = append(eqs, mkEQ(id, k, tups))
	}
	return &Analysis{Pages: pages, EQs: eqs, params: DefaultParams().normalized(), nRoles: mkRoles}
}

// On random hierarchies, painting the kept classes in hierarchy order
// equals the width-sorted reference painting.
func TestHierarchyPaintingMatchesWidthSortRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nested := 0
	for c := range 2000 {
		a := randomLaminar(rng)
		BuildHierarchy(a)
		for _, e := range a.EQs {
			if e.Parent != nil {
				nested++
			}
		}
		if err := checkPainting(a, a.scopes); err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
	}
	if nested < 1000 {
		t.Fatalf("only %d nested classes over the cases: the generator no longer nests", nested)
	}
}
