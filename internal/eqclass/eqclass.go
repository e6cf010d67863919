package eqclass

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"objectrunner/internal/obs"
	"objectrunner/internal/parallel"
	"objectrunner/internal/symtab"
)

// Params tunes Algorithm 2.
type Params struct {
	// Support is the minimal number of pages in which a token must appear
	// to be a template candidate (varied between 3 and 5 in the paper's
	// experiments).
	Support int
	// AnnThreshold is the generalization threshold for incomplete or
	// conflicting annotations (0.7 in the paper).
	AnnThreshold float64
	// MaxIter bounds the outer fixpoint loop and each inner one. It is a
	// safety bound only: differentiation refines roles, so the loops
	// reach their fixpoint on their own (a run cut by the bound is
	// marked Analysis.Capped).
	MaxIter int
	// UseAnnotations enables the semantic criteria. Disabling it yields
	// the pure ExAlg-style baseline behaviour.
	UseAnnotations bool
	// Workers bounds the fan-out of the analysis passes inside the
	// fixpoint (role re-keying, occurrence-vector counting, annotation
	// labelling, scope painting). 0 (the default) means one worker per
	// available CPU; 1 forces the sequential path. Role numbering — and
	// therefore every downstream artifact — is byte-identical at any
	// worker count.
	Workers int
}

// DefaultParams mirrors the paper's configuration.
func DefaultParams() Params {
	return Params{Support: 3, AnnThreshold: 0.7, MaxIter: 10, UseAnnotations: true}
}

// normalized fills unset fields with the paper's defaults and resolves
// the worker count.
func (p Params) normalized() Params {
	if p.Support <= 0 {
		p.Support = 3
	}
	if p.AnnThreshold <= 0 {
		p.AnnThreshold = 0.7
	}
	if p.MaxIter <= 0 {
		p.MaxIter = 10
	}
	p.Workers = parallel.Workers(p.Workers)
	return p
}

// Tuple is one repetition of an equivalence class on a page: the token
// positions of its k roles, in template order.
type Tuple struct {
	Positions []int
}

// First returns the position of the first separator.
func (t Tuple) First() int { return t.Positions[0] }

// Last returns the position of the last separator.
func (t Tuple) Last() int { return t.Positions[len(t.Positions)-1] }

// EQ is a valid equivalence class: a set of token roles having the same
// frequency of occurrences in each input page and a unique template role
// (paper §III.C). Roles are ordered; consecutive roles delimit the class's
// data slots.
type EQ struct {
	ID     int
	Roles  []int     // role ids in template (σ) order
	Descs  []Desc    // page-independent descriptors of the roles
	Vector []int     // occurrences per page
	Tuples [][]Tuple // per page, the class's repetitions in order

	// Hierarchy (filled by BuildHierarchy).
	Parent     *EQ
	ParentSlot int
	Children   []*EQ
	// OrderHint is the class's average token offset from the start of
	// the parent tuple containing it: children of one slot extract in
	// this order when their separator descriptors are structurally
	// identical (annotation-differentiated roles look alike on unseen
	// pages).
	OrderHint float64
}

// K returns the number of roles (separators) in the class.
func (e *EQ) K() int { return len(e.Roles) }

// Slots returns the number of interior data slots (K-1).
func (e *EQ) Slots() int {
	if e.K() < 2 {
		return 0
	}
	return e.K() - 1
}

// String renders a compact description for diagnostics.
func (e *EQ) String() string {
	var parts []string
	for _, d := range e.Descs {
		parts = append(parts, d.String())
	}
	return fmt.Sprintf("EQ%d%v [%s]", e.ID, e.Vector, strings.Join(parts, " "))
}

// Analysis is the result of running Algorithm 2 over a page sample.
type Analysis struct {
	// Pages holds the token sequences. They are shared with the Base the
	// analysis ran from and never written: the role assignment lives in
	// the analysis (see Role).
	Pages [][]*Occurrence
	// EQs are the valid equivalence classes, in discovery order.
	EQs []*EQ
	// Conflicts counts the conflicting-annotation events observed; the
	// wrapper's self-validation loop uses it as a quality estimate.
	Conflicts int
	// Iterations is the number of outer-loop iterations performed.
	Iterations int
	// Capped reports that the fixpoint loop stopped at Params.MaxIter
	// with roles still changing rather than at its fixpoint.
	Capped bool

	params Params
	// tab interns token values, paths, and annotation labels for this
	// analysis; role keys and descriptors reference its symbols.
	tab *symtab.Table
	// nRoles is the number of distinct roles currently assigned; role
	// ids are dense, numbered in first-seen page order.
	nRoles int
	// roles holds every occurrence's current role id, flat in the
	// pageOff layout. Each run owns its copy, so runs of one Base share
	// the pages themselves.
	roles []int32
	// profiles holds per-class slot profiles, keyed by EQ id (filled by
	// BuildHierarchy).
	profiles map[int][]SlotProfile
	// obs receives the events of every differentiation step.
	obs *obs.Observer
	// pageOff is the flat occurrence layout (see initLayout), shared
	// with the Base the analysis resumed from.
	pageOff []int
	// stats caches the per-role aggregation of the most recent
	// findEQs/shard for the differentiate call that follows; a changed
	// partition (or a permuted numbering) drops it, and with it the
	// classes of the round hold stale role ids.
	stats []roleStat
	// scopes is the painting of the hierarchy BuildHierarchy last built
	// (see computeScopes), for the differentiate call that follows.
	scopes []scope
	// sc is the run's reusable working state (see scratch).
	sc *scratch
}

// roleCount returns the number of distinct roles currently assigned.
func (a *Analysis) roleCount() int { return a.nRoles }

// Role returns the occurrence's current role id; o must belong to
// a.Pages.
func (a *Analysis) Role(o *Occurrence) int {
	a.roleIDs()
	return a.role(o)
}

// role is Role for the analysis passes, which run after roleIDs set the
// assignment up.
func (a *Analysis) role(o *Occurrence) int { return int(a.roles[a.pageOff[o.Page]+o.Pos]) }

// Table returns the symbol table the analysis interned its pages into.
func (a *Analysis) Table() *symtab.Table { return a.tab }

// total returns the token count across all pages.
func (a *Analysis) total() int { return a.layout()[len(a.Pages)] }

// Analyze runs Algorithm 2: differentiate roles by HTML features, then
// iterate {find EQs; differentiate by EQ positions and non-conflicting
// annotations} to a fixpoint, then apply conflicting annotations, until
// the outer fixpoint. The abort check of §III.E runs in the wrapper
// package between iterations via the Hook.
func Analyze(pages [][]*Occurrence, p Params, hook func(a *Analysis) bool) *Analysis {
	return AnalyzeTable(pages, p, hook, nil, nil)
}

// AnalyzeTable is Analyze reporting the role counts and EQ counts of
// every differentiation step — (i) HTML features, (ii) positions within
// equivalence classes, (iii) non-conflicting and (iv) conflicting
// annotations — plus invalid-EQ salvage events, to the observer, and
// interning into a caller-supplied symbol table (nil creates a private
// one). Occurrences already carrying symbols must have been interned
// against the same table; they are not re-interned.
// It is the staged core run end to end for a single support value: build
// the per-corpus Base snapshot, then run the fixpoint from it. Callers
// that vary the support should build the Base once and call its Analyze
// per value instead.
func AnalyzeTable(pages [][]*Occurrence, p Params, hook func(a *Analysis) bool, ob *obs.Observer, tab *symtab.Table) *Analysis {
	b := NewBase(pages, p, ob, tab)
	return b.run(b.params, hook, ob)
}

// templateCandidate reports whether the occurrence may serve as a
// template (separator) token. Words carrying entity-type annotations are
// data by definition when annotations are enabled.
func (a *Analysis) templateCandidate(o *Occurrence) bool {
	if a.params.UseAnnotations && o.Kind == KindWord && o.Annotated() {
		return false
	}
	return true
}

// roleStat aggregates a role's occurrence vector, page coverage, and
// occurrences (page order then position). Roles are dense, so analysis
// passes index a flat []roleStat instead of hashing role keys.
type roleStat struct {
	vector []int
	pages  int
	occs   []*Occurrence
	cand   bool
}

// findEQs groups template-candidate roles by occurrence vector, validates
// order and nesting, and returns the valid equivalence classes. The
// per-role aggregation is cached on the analysis for the differentiate
// call that follows. Unless keep is set, the classes live in the run's
// scratch until the next call (see classArena).
func (a *Analysis) findEQs(keep bool) []*EQ {
	stats := a.computeRoleStats()
	a.stats = stats
	var ar *classArena
	if !keep {
		ar = &a.scratch().classes
		ar.reset()
	}
	return a.classesFrom(stats, a.params.Support, ar)
}

// classesFrom runs the grouping + validation half of findEQs on an
// existing per-role aggregation, for one support value; the classes are
// carved from ar (nil: allocated on their own).
func (a *Analysis) classesFrom(stats []roleStat, support int, ar *classArena) []*EQ {
	if np := len(a.Pages); support > np {
		support = np
	}
	var eqs []*EQ
	id := 0
	for _, roles := range a.groupRoles(stats, support) {
		if slotlessGroup(roles) {
			id++
			continue
		}
		n := len(eqs)
		var invalid bool
		eqs, invalid = a.salvageEQs(eqs, roles, stats, ar)
		if invalid {
			a.countInvalidGroup(len(roles))
		}
		for _, eq := range eqs[n:] {
			id++
			eq.ID = id
		}
	}
	return eqs
}

// slotlessGroup reports whether a role group can only yield a class
// without slots: a single-role group always validates (its one role has
// the group's vector by construction) into a one-role class, and
// BuildHierarchy — which every class list reaches before anything else
// reads it — drops classes without slots. Such a group only takes up
// its class id, so callers number it without building the class.
func slotlessGroup(roles []int) bool { return len(roles) == 1 }

// groupRoles returns the template-candidate role groups (same occurrence
// vector, page coverage >= support) in ascending vector order (compared
// element-wise); each group lists its roles in ascending id order. Group
// order fixes class ids, which reports show. The candidates sorted on
// (vector, id) fall into runs that are exactly the groups. The groups
// view the run's scratch, valid until the next call.
func (a *Analysis) groupRoles(stats []roleStat, support int) [][]int {
	sc := a.scratch()
	cands := sc.cands[:0]
	for r := range stats {
		if st := &stats[r]; st.cand && st.pages >= support {
			cands = append(cands, r)
		}
	}
	slices.SortFunc(cands, func(x, y int) int {
		if c := slices.Compare(stats[x].vector, stats[y].vector); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	sc.cands = cands
	groups := sc.groups[:0]
	for i := 0; i < len(cands); {
		j := i + 1
		for j < len(cands) && slices.Equal(stats[cands[j]].vector, stats[cands[i]].vector) {
			j++
		}
		groups = append(groups, cands[i:j:j])
		i = j
	}
	sc.groups = groups
	return groups
}

// countInvalidGroup records one same-vector group failing the ordered-
// and-nested test (invalid-EQ accounting).
func (a *Analysis) countInvalidGroup(roles int) {
	a.obs.Count("eqclass.invalid_eqs", 1)
	a.obs.Event("eqclass.invalid_eq", obs.A("roles", roles))
}

// cloneForRun copies a base prototype class for one analysis run: the
// immutable parts (roles, vector, tuples) are shared across runs, the
// descriptors are copied (computeDescOrdinals mutates their ordinals),
// and the hierarchy links start zero-valued exactly like a class fresh
// out of validateEQ (BuildHierarchy fills them per run).
func (e *EQ) cloneForRun() *EQ {
	descs := make([]Desc, len(e.Descs))
	copy(descs, e.Descs)
	return &EQ{Roles: e.Roles, Descs: descs, Vector: e.Vector, Tuples: e.Tuples}
}

// detach copies a class of a fixpoint round out of the run's scratch for
// an analysis that keeps it (an aborted run ends on such a round). The
// hierarchy links start zero-valued; BuildHierarchy fills them.
func (e *EQ) detach() *EQ {
	tuples := make([][]Tuple, len(e.Tuples))
	for pi, tups := range e.Tuples {
		if len(tups) > 0 {
			tuples[pi] = make([]Tuple, len(tups))
			for ti, t := range tups {
				tuples[pi][ti].Positions = slices.Clone(t.Positions)
			}
		}
	}
	return &EQ{ID: e.ID, Roles: slices.Clone(e.Roles), Descs: slices.Clone(e.Descs),
		Vector: slices.Clone(e.Vector), Tuples: tuples, OrderHint: e.OrderHint}
}

// salvageEQs handles invalid candidate classes (Algorithm 2, "handle
// invalid EQs"): when a same-vector group fails the ordered-and-nested
// test — typically because a data word coincidentally shares the vector —
// progressively smaller subgroups are retried: the tag tokens alone, then
// the tag tokens partitioned by DOM path. Members excluded from a class
// simply remain data. The classes are appended to out. The invalid flag
// reports that salvage was entered; the caller owns the accounting
// (countInvalidGroup), so the base snapshot can validate once and
// re-report per sharded run. The classes are carved from ar (nil:
// allocated on their own).
func (a *Analysis) salvageEQs(out []*EQ, roles []int, stats []roleStat, ar *classArena) (_ []*EQ, invalid bool) {
	if eq := a.validateEQ(roles, stats, ar); eq != nil {
		return append(out, eq), false
	}
	// The same-vector group failed the ordered-and-nested test and enters
	// progressive salvage.
	// Each role's first occurrence (page order) is its representative for
	// kind and path.
	rep := func(r int) *Occurrence { return stats[r].occs[0] }
	sc := a.scratch()
	tags := sc.tags[:0]
	for _, r := range roles {
		if rep(r).Kind != KindWord {
			tags = append(tags, r)
		}
	}
	sc.tags = tags
	if len(tags) > 0 && len(tags) < len(roles) {
		if eq := a.validateEQ(tags, stats, ar); eq != nil {
			return append(out, eq), true
		}
	}
	if len(tags) < 2 {
		return out, true
	}
	// Partition the tags by DOM path, paths in sorted order; the stable
	// sort keeps each subgroup in the ascending role order of tags.
	slices.SortStableFunc(tags, func(x, y int) int { return strings.Compare(rep(x).Path, rep(y).Path) })
	for i := 0; i < len(tags); {
		j := i + 1
		for j < len(tags) && rep(tags[j]).Path == rep(tags[i]).Path {
			j++
		}
		if eq := a.validateEQ(tags[i:j], stats, ar); eq != nil {
			out = append(out, eq)
		}
		i = j
	}
	return out, true
}

// validateEQ checks the ordered-and-nested property: on every page the
// occurrences of the class's roles must form the same role sequence σ
// repeated vector[p] times. It returns the class with its tuples, or nil
// when invalid (such classes are discarded — Algorithm 2, "handle invalid
// EQs").
//
// The roles share one occurrence vector (they are a same-vector group or
// a subset of one), so on page p every role's occurrences are the same
// segment of its page-ordered occurrence list; gathered and sorted by
// position they are exactly the class's occurrences on that page, and
// no page needs scanning. Every role contributes the same count, so a
// page that is σ repeated also proves σ's roles distinct. Validation
// runs in the run's scratch; a class that validates copies everything it
// keeps (the vector may live in a reused statistics buffer) into buffers
// carved from ar, or allocated on their own when ar is nil.
func (a *Analysis) validateEQ(roles []int, stats []roleStat, ar *classArena) *EQ {
	k := len(roles)
	vector := stats[roles[0]].vector
	sc := a.scratch()
	// sigma holds the first tuple's occurrences (σ in template order);
	// pos collects every tuple's positions, page after page.
	sigma := sc.sigma[:0]
	pos := sc.pos[:0]
	start := 0
	for _, n := range vector {
		if n == 0 {
			continue
		}
		occs := sc.occs[:0]
		for _, r := range roles {
			occs = append(occs, stats[r].occs[start:start+n]...)
		}
		start += n
		sc.occs = occs
		if k > 1 {
			slices.SortFunc(occs, func(x, y *Occurrence) int { return cmp.Compare(x.Pos, y.Pos) })
		}
		if len(sigma) == 0 {
			sigma = append(sigma, occs[:k]...)
			sc.sigma = sigma
		}
		for i, o := range occs {
			if a.role(o) != a.role(sigma[i%k]) {
				return nil
			}
			pos = append(pos, o.Pos)
		}
		sc.pos = pos
	}
	if len(sigma) == 0 {
		return nil
	}
	// One backing array holds the class's roles, its vector and every
	// tuple's positions.
	np := len(vector)
	if ar == nil {
		ar = new(classArena) // empty: every buffer is allocated to size
	}
	ints := carve(&ar.ints, k+np+len(pos))
	sigmaRoles, vec, flat := ints[:k:k], ints[k:k+np:k+np], ints[k+np:]
	copy(vec, vector)
	copy(flat, pos)
	arena := carve(&ar.tuples, len(flat)/k)
	for t := range arena {
		arena[t].Positions = flat[t*k : (t+1)*k : (t+1)*k]
	}
	tuples := carve(&ar.rows, np)
	for pi, t := 0, 0; pi < np; pi++ {
		tuples[pi] = nil
		if n := vector[pi]; n > 0 {
			tuples[pi] = arena[t : t+n : t+n]
			t += n
		}
	}
	descs := carve(&ar.descs, k)
	for i, o := range sigma {
		sigmaRoles[i] = a.role(o)
		descs[i] = DescOf(o)
	}
	e := &carve(&ar.eqs, 1)[0]
	*e = EQ{Roles: sigmaRoles, Descs: descs, Vector: vec, Tuples: tuples}
	return e
}

// scope identifies the innermost hierarchy slot containing a token:
// slot numbers the interior slots of a.EQs in list order (a class's
// slots are consecutive; -1 outside every slot), and tuple is the
// containing repetition's ordinal on the page.
type scope struct {
	slot, tuple int32
}

// computeScopes paints, for every occurrence, the innermost slot of the
// hierarchy containing it, into a flat buffer in the pageOff layout. It
// runs on the classes BuildHierarchy kept: their gaps are laminar — a
// class either lies inside one slot of an earlier-kept class or is
// disjoint from it, and the list puts containers before what they
// contain — so painting the classes in list order leaves every position
// with its innermost slot, with no sort. Gaps never span pages, so the
// painting fans out over page chunks. The buffer is the run's scratch,
// valid until the next call.
func (a *Analysis) computeScopes() []scope {
	off := a.layout()
	np := len(a.Pages)
	sc := a.scratch()
	sc.scopeBuf = resize(sc.scopeBuf, off[np])
	scopes := sc.scopeBuf
	parallel.MapWorkersCtx(nil, a.params.Workers, np,
		func(_ context.Context, _ int, c parallel.Chunk) (struct{}, error) {
			for pi := c.Lo; pi < c.Hi; pi++ {
				row := scopes[off[pi]:off[pi+1]]
				for i := range row {
					row[i] = scope{slot: -1}
				}
				slot := int32(0)
				for _, e := range a.EQs {
					if pi < len(e.Tuples) {
						for ti, t := range e.Tuples[pi] {
							for s := 0; s+1 < len(t.Positions); s++ {
								in := scope{slot: slot + int32(s), tuple: int32(ti)}
								for p := t.Positions[s] + 1; p < t.Positions[s+1]; p++ {
									row[p] = in
								}
							}
						}
					}
					slot += int32(e.Slots())
				}
			}
			return struct{}{}, nil
		})
	return scopes
}

// differentiate recomputes roles with the positional (slot + ordinal) and
// annotation criteria, on the hierarchy BuildHierarchy last built and
// painted and the per-role aggregation (a.stats) of the current
// numbering that the round's findEQs or shard left. Roles that belong to a valid class of the hierarchy are
// "deemed unique" already and keep their partition — in particular, the
// repeated occurrences of an iterator class (a record <li> appearing a
// varying number of times per page) are never split. Free roles are
// refined by their innermost slot plus an ordinal, settling on the
// minimal number of consecutive occurrences across tuples (paper
// §III.C), and by annotation labels. With conflicting=false only
// unambiguous single-type annotations participate; with
// conflicting=true, disagreeing roles are resolved by majority
// generalization at the AnnThreshold and unresolved disagreements are
// counted as conflicts.
func (a *Analysis) differentiate(conflicting bool) bool {
	scopes, stats := a.scopes, a.stats

	// Roles of current valid classes are frozen — except, when semantic
	// annotations are in play, those of child classes repeating a
	// constant number of times (>= 2) per parent tuple: such classes are
	// structural repetition, not iterators, and their tokens play several
	// distinct roles (the three <div>s of the running example). Those are
	// dissolved for ordinal differentiation. The paper is explicit that
	// positions in the HTML tree and in equivalence classes alone do not
	// suffice to tell the roles apart (§III.C) — so the purely structural
	// baseline (UseAnnotations=false) keeps such classes as nested
	// iterators, exactly like ExAlg. The classes carry ids of the current
	// numbering: run re-finds them when a cut inner loop left them stale.
	sc := a.scratch()
	sc.frozen = resize(sc.frozen, a.roleCount())
	frozen := sc.frozen
	clear(frozen)
	nslots := 0
	for _, e := range a.EQs {
		nslots += e.Slots()
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

	ords := a.slotOrdinals(stats, scopes, frozen, nslots)

	// Annotation labels per occurrence. Annotations apply to frozen roles
	// too: a frozen iterator class whose token occurrences carry distinct
	// types (the classless record <div>s) must still be differentiated —
	// freezing only shields roles from positional re-splitting.
	labels := a.annotationSyms(stats, conflicting)

	// Recompute keys: frozen roles split by annotation label alone; free
	// occurrences by slot, ordinal and label. Every key carries the
	// occurrence's current role (prev), so the step refines the
	// partition: a split made in one round stays made, and the fixpoint
	// loop terminates (DESIGN §16).
	roles := a.roles
	return a.assignRolesBy(func(gi int) roleKey {
		r := roles[gi]
		k := roleKey{slot: -1, prev: r}
		if labels != nil {
			k.ann = labels[gi]
		}
		if !frozen[r] {
			if in := scopes[gi]; in.slot >= 0 {
				k.slot, k.ord = in.slot, ords[gi]
			}
		}
		return k
	})
}

// annotationSyms decides, per occurrence, the annotation label used for
// role differentiation, as interned symbols in a flat buffer indexed by
// the pageOff layout (symtab.None = unlabelled; labels are non-empty
// type names, so None is unambiguous). Returns nil when annotations are
// disabled.
//
// Non-conflicting phase: a role whose occurrences carry one consistent
// type is labelled wholesale when the annotated share reaches
// AnnThreshold (the paper's incomplete-annotation generalization); a role
// whose occurrences are each uniquely typed with different types splits
// by type. Sparse mixed roles and roles with multi-type occurrences are
// deferred.
//
// Conflicting phase: deferred roles are resolved by majority
// generalization at AnnThreshold; overridden or unresolved annotations
// are counted as conflicts (the wrapper's quality estimate).
//
// Decisions are independent per role, so the pass fans out across role
// chunks of stats (the per-role aggregation of the current numbering):
// every occurrence has exactly one role, hence exactly one writer for
// its label slot, and per-worker conflict counts merge by sum
// (commutative). Type names were pre-interned by NewBase, so the
// concurrent Intern calls all take the table's read path.
func (a *Analysis) annotationSyms(stats []roleStat, conflicting bool) []symtab.Sym {
	if !a.params.UseAnnotations {
		return nil
	}
	if conflicting {
		// Conflicts reflect the current role assignment; recount on each
		// conflicting pass rather than accumulating across passes.
		a.Conflicts = 0
	}
	sc := a.scratch()
	sc.labels = resize(sc.labels, a.total())
	labels := sc.labels
	clear(labels)
	n := len(stats)
	confl, _ := parallel.MapWorkersCtx(nil, a.params.Workers, n,
		func(_ context.Context, _ int, c parallel.Chunk) (int, error) {
			conflicts := 0
			label := func(o *Occurrence, t string) {
				labels[a.pageOff[o.Page]+o.Pos] = a.tab.Intern(t)
			}
			typeCounts := make(map[string]int) // cleared per role
			var keys []string
			for r := c.Lo; r < c.Hi; r++ {
				occs := stats[r].occs
				hasMulti := false
				sole := "" // the single type name while len(typeCounts) == 1
				clear(typeCounts)
				annotated := 0
				for _, o := range occs {
					if len(o.Types) > 1 {
						hasMulti = true
					}
					if len(o.Types) > 0 {
						annotated++
						for _, t := range o.Types {
							typeCounts[t]++
						}
						if len(typeCounts) == 1 {
							sole = o.Types[0]
						}
					}
				}
				if annotated == 0 {
					continue
				}
				annShare := float64(annotated) / float64(len(occs))
				if !conflicting {
					switch {
					case hasMulti:
						// Deferred to the conflicting phase.
					case len(typeCounts) == 1:
						if annShare >= a.params.AnnThreshold {
							for _, o := range occs {
								label(o, sole)
							}
						}
						// Too sparse to trust: leave unlabelled rather than
						// splitting annotated from unannotated occurrences.
					default:
						// Several distinct types share the role (the classless
						// <div>s of the running example): split the annotated
						// occurrences by their type; unannotated ones stay in
						// the base role. This is how annotations differentiate
						// roles that positions alone cannot (paper §III.C).
						for _, o := range occs {
							if t := o.SingleType(); t != "" {
								label(o, t)
							}
						}
					}
					continue
				}
				// Conflicting phase: majority generalization over the role.
				best, bestCount, annTotal := "", 0, 0
				keys = keys[:0]
				for t := range typeCounts {
					keys = append(keys, t)
				}
				sort.Strings(keys)
				for _, t := range keys {
					c := typeCounts[t]
					annTotal += c
					if c > bestCount {
						best, bestCount = t, c
					}
				}
				if len(typeCounts) == 1 && !hasMulti {
					// Consistent but possibly sparse; nothing conflicting here.
					if annShare >= a.params.AnnThreshold {
						for _, o := range occs {
							label(o, best)
						}
					}
					continue
				}
				if float64(bestCount)/float64(annTotal) >= a.params.AnnThreshold {
					conflicts += annTotal - bestCount
					for _, o := range occs {
						label(o, best)
					}
					continue
				}
				// Unresolvable: count the conflict, leave occurrences unlabeled.
				conflicts += annTotal
			}
			return conflicts, nil
		})
	for _, c := range confl {
		a.Conflicts += c
	}
	return labels
}
