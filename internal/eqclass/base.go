package eqclass

import (
	"runtime"
	"slices"
	"sync/atomic"

	"objectrunner/internal/obs"
	"objectrunner/internal/symtab"
)

// The staged analysis core. Algorithm 2's first stage — interning,
// criterion-i HTML-feature role assignment, occurrence-vector counting,
// and first-round class validation — depends only on the corpus, not on
// the support value. Base snapshots that stage once so the wrapper's
// support-variation loop (support 3..5 under DefaultConfig) resumes from
// the snapshot instead of redoing it per variation; one signature-count
// pass serves every candidate support value (the shard step below).

// baseGroup is one same-vector candidate role group of the snapshot,
// pre-validated (salvaged) once. All roles of a group share a single
// occurrence vector and therefore a single page coverage, so a support
// filter keeps or drops a group wholesale — which is what makes the
// first findEQs round shardable by support.
type baseGroup struct {
	pages    int  // page coverage shared by the group's roles
	nroles   int  // group size, re-reported with invalid-EQ events
	invalid  bool // group failed ordered-and-nested and went through salvage
	slotless bool // one class id, no class (see slotlessGroup)
	eqs      []*EQ
}

// Base is the immutable per-corpus snapshot of Algorithm 2's shared
// first stage. It is safe for concurrent Analyze calls; the snapshot
// itself is never mutated after NewBase returns (analysis runs read the
// pages and start from a copy of the role assignment).
type Base struct {
	pages   [][]*Occurrence
	tab     *symtab.Table
	params  Params
	nRoles  int
	roles   []int32
	pageOff []int
	stats   []roleStat
	groups  []baseGroup
	// minSupport is the support floor the groups were filtered at
	// (params.Support clamped to the page count); shard falls back to a
	// live pass below it.
	minSupport int
	// uses counts analysis runs resumed from this base; runs after the
	// first increment the eqclass.base_reuse counter.
	uses atomic.Int64
}

// NewBase computes the snapshot: interning (skipped for already-interned
// pages), criterion-i role assignment on the master pages, per-role
// occurrence vectors, and the pre-salvaged first-round class groups at
// p.Support as the support floor. A nil tab creates a private table.
// Annotation type names are pre-interned in deterministic page order so
// the parallel differentiation passes only ever hit the table's
// read path.
func NewBase(pages [][]*Occurrence, p Params, ob *obs.Observer, tab *symtab.Table) *Base {
	p = p.normalized()
	if tab == nil {
		tab = symtab.New()
	}
	InternPages(tab, pages)
	b := &Base{pages: pages, tab: tab, params: p}
	a := &Analysis{Pages: pages, params: p, obs: ob, tab: tab}
	a.initLayout()
	b.pageOff = a.pageOff
	if p.UseAnnotations {
		for _, page := range pages {
			for _, o := range page {
				for _, t := range o.Types {
					tab.Intern(t)
				}
			}
		}
	}

	// The snapshot keeps the statistics computed next, so they get
	// buffers of their own; the scratch's spare ones are set aside
	// meanwhile and handed back for the runs after it.
	sc := a.scratch()
	spare := *sc
	sc.stats, sc.vecs, sc.occArena = nil, nil, nil
	// Criterion i: differentiate roles by HTML features (value + DOM
	// path). Annotated words are shielded from template candidacy so that
	// too-regular data ("New York") stays extractable (paper §II.C).
	a.assignBaseRoles()
	b.nRoles, b.roles = a.nRoles, a.roles
	b.stats = a.computeRoleStats()
	sc.stats, sc.vecs, sc.occArena = spare.stats, spare.vecs, spare.occArena

	// Group candidate roles by occurrence vector and validate each group
	// once. Validation (ordered-and-nested, salvage) is support-
	// independent; the per-support filter happens at shard time.
	np := len(pages)
	minSupport := p.Support
	if minSupport > np {
		minSupport = np
	}
	b.minSupport = minSupport
	for _, roles := range a.groupRoles(b.stats, minSupport) {
		g := baseGroup{pages: b.stats[roles[0]].pages, nroles: len(roles), slotless: slotlessGroup(roles)}
		if !g.slotless {
			g.eqs, g.invalid = a.salvageEQs(nil, roles, b.stats, nil)
		}
		b.groups = append(b.groups, g)
	}
	a.releaseScratch()
	ob.Count("eqclass.base_builds", 1)
	ob.Event("eqclass.base", obs.A("pages", np),
		obs.A("roles", b.nRoles), obs.A("groups", len(b.groups)))
	return b
}

// Roles returns the number of distinct criterion-i roles in the snapshot.
func (b *Base) Roles() int { return b.nRoles }

// Groups returns the number of pre-validated same-vector role groups.
func (b *Base) Groups() int { return len(b.groups) }

// Table returns the symbol table the base interned its pages into.
func (b *Base) Table() *symtab.Table { return b.tab }

// Analyze runs the Algorithm 2 fixpoint from the snapshot, so one base
// serves any number of runs (the support-variation loop, concurrent
// callers): each run reads the shared pages and refines its own copy of
// the role assignment. p may vary Support, MaxIter, AnnThreshold and
// Workers freely; UseAnnotations must match the base's (it shapes
// template candidacy, which the snapshot bakes in). Runs after the first
// count as eqclass.base_reuse.
func (b *Base) Analyze(p Params, hook func(a *Analysis) bool, ob *obs.Observer) *Analysis {
	return b.run(p.normalized(), hook, ob)
}

// shard materializes the first-round class set for one support value
// from the pre-salvaged groups: filter by page coverage, clone the
// prototype classes, renumber sequentially. Stored group order is the
// sorted vector-key order of groupRoles, and a coverage filter selects a
// subsequence, so ids come out exactly as a live findEQs would assign
// them. Invalid groups re-emit their accounting per run, preserving the
// per-variation counter semantics of the monolithic analysis.
func (b *Base) shard(a *Analysis, support int) []*EQ {
	if support > len(b.pages) {
		support = len(b.pages)
	}
	if support < b.minSupport {
		// Below the snapshot's support floor some groups were never
		// validated; run the full pass on the cached stats instead.
		return a.classesFrom(b.stats, support, nil)
	}
	var eqs []*EQ
	id := 0
	for i := range b.groups {
		g := &b.groups[i]
		if g.pages < support {
			continue
		}
		if g.slotless {
			id++
			continue
		}
		if g.invalid {
			a.countInvalidGroup(g.nroles)
		}
		for _, e := range g.eqs {
			id++
			c := e.cloneForRun()
			c.ID = id
			eqs = append(eqs, c)
		}
	}
	return eqs
}

// run is the staged Algorithm 2 fixpoint: differentiate roles by HTML
// features (done — inherited from the base), then iterate {find EQs;
// differentiate by EQ positions and non-conflicting annotations} to a
// fixpoint, then apply conflicting annotations, until the outer
// fixpoint. The first find-EQs round resumes from the snapshot (shard);
// every later round runs live on the renumbered roles. The abort check
// of §III.E runs between iterations via the hook.
func (b *Base) run(p Params, hook func(a *Analysis) bool, ob *obs.Observer) *Analysis {
	if b.uses.Add(1) > 1 {
		ob.Count("eqclass.base_reuse", 1)
	}
	a := &Analysis{Pages: b.pages, params: p, obs: ob, tab: b.tab}
	a.nRoles, a.roles = b.nRoles, slices.Clone(b.roles)
	a.pageOff = b.pageOff
	ob.Event("eqclass.step", obs.A("step", "i-html"), obs.A("roles", a.roleCount()))

	aborted := false
	fromBase := true
	// Every differentiation step refines the role partition (roleKey.prev),
	// so each changed step adds at least one role and the loops reach
	// their fixpoint within as many steps as there are occurrences.
	// MaxIter is only a safety bound: a run that reaches it with roles
	// still changing is marked Capped.
	changedOuter := false
	for iter := 0; iter < p.MaxIter; iter++ {
		a.Iterations = iter + 1
		changedOuter = false
		// Inner fixpoint: EQs + non-conflicting annotations.
		changed := false
		for inner := 0; inner < p.MaxIter; inner++ {
			if fromBase {
				a.EQs = b.shard(a, p.Support)
				a.stats = b.stats
				fromBase = false
			} else {
				a.EQs = a.findEQs(false)
			}
			// Handle invalid EQs: classes straddling other classes'
			// separators are discarded, freeing their roles for further
			// differentiation.
			BuildHierarchy(a)
			if hook != nil && !hook(a) {
				aborted = true
				ob.Count("eqclass.early_stops", 1)
				ob.Event("eqclass.early_stop", obs.A("iteration", a.Iterations), obs.A("eqs", len(a.EQs)))
				break
			}
			changed = a.differentiate(false)
			// Hand the CPU on between rounds, as the per-page stages do
			// between pages (parallel.ForEachCtx): a run on a server's
			// request goroutine would otherwise keep it through every
			// round until preempted.
			runtime.Gosched()
			// Steps ii-iii run fused: positional (EQ + ordinal) keys and
			// non-conflicting annotation labels in one recomputation.
			ob.Event("eqclass.step", obs.A("step", "ii-iii-positional+nonconflicting"),
				obs.A("iteration", a.Iterations), obs.A("roles", a.roleCount()),
				obs.A("eqs", len(a.EQs)), obs.A("changed", changed))
			if changed {
				changedOuter = true
				continue
			}
			break
		}
		if aborted {
			break
		}
		if changed {
			a.Capped = true
		}
		// Conflicting annotations.
		if p.UseAnnotations {
			if a.stats == nil {
				// The inner loop was cut with roles still changing: the
				// classes carry ids of the numbering before its last step,
				// so find them again on the current one.
				a.EQs = a.findEQs(false)
				BuildHierarchy(a)
			}
			changed := a.differentiate(true)
			ob.Event("eqclass.step", obs.A("step", "iv-conflicting"),
				obs.A("iteration", a.Iterations), obs.A("roles", a.roleCount()),
				obs.A("conflicts", a.Conflicts), obs.A("changed", changed))
			if changed {
				changedOuter = true
			}
		}
		if !changedOuter {
			break
		}
	}
	if changedOuter && !aborted {
		a.Capped = true
	}
	if a.Capped {
		ob.Count("eqclass.fixpoint_capped", 1)
		ob.Event("eqclass.fixpoint_capped", obs.A("iterations", a.Iterations), obs.A("max_iter", p.MaxIter))
	}
	if aborted {
		// The classes of the aborted round live in the scratch.
		for i, e := range a.EQs {
			a.EQs[i] = e.detach()
		}
	} else {
		a.EQs = a.findEQs(true)
	}
	BuildHierarchy(a)
	// Extraction-time separator ordinals are only needed on the final
	// hierarchy.
	computeDescOrdinals(a)
	ob.Count("eqclass.conflicts", int64(a.Conflicts))
	// Hand the working state (and the statistics that view into it) to
	// the next run, so a finished analysis does not pin it.
	a.releaseScratch()
	return a
}
