package eqclass

import (
	"objectrunner/internal/parallel"
	"objectrunner/internal/symtab"
)

// scratch is the working state of one analysis run, reused by every
// round of its fixpoint instead of being rebuilt per round, and by the
// runs after it through spareScratch: a wrap runs one analysis per
// support value, and a daemon wraps source after source, so regrowing
// these maps and buffers for every run would be most of what a converged
// analysis allocates. A scratch belongs to one Analysis at a time, never
// to the shared Base (Base serves concurrent runs). Nothing in it
// outlives the pass that fills it: classes copy what they keep
// (validateEQ), and what an analysis or a Base keeps — the final role
// keys, the snapshot statistics — is detached from the scratch first.
type scratch struct {
	// computeScopes: one flat row buffer indexed through pageOff, its
	// per-page row headers, and the per-page gap lists.
	scopeBuf  []scope
	scopeRows [][]scope
	gaps      [][]gap

	// differentiate / slotMinima: the frozen-role bitmap, per-worker
	// ordinal counters and run-length aggregates, and the merged minima.
	frozen   []bool
	ordinals []map[ordScope]int
	aggs     []map[rsKey]slotAgg
	minima   map[rsKey]int

	// annotationSyms: flat per-occurrence label buffer.
	labels []symtab.Sym

	// assignRolesBy: per-occurrence worker-local key ids, per-worker
	// first-seen key sets, the merged key set, the legacy sort-key arena,
	// and the old/new partition bijection.
	perOcc    []int32
	seen      []map[roleKey]int32
	localKeys [][]roleKey
	idOf      map[roleKey]int32
	keys      []roleKey
	// keyBufs holds the sorted role keys of the last two assignments:
	// keyBufs[flip] is the analysis's current roleKeys, which frozen
	// roles read while the next assignment fills keyBufs[flip^1].
	keyBufs   [2][]roleKey
	flip      int
	remap     [][]int32
	legacy    []byte
	legacyOff []int
	perm      []int32
	rank      []int32
	oldToNew  []int
	newToOld  []int

	// computeRoleStats: the stats rows, their vector and occurrence
	// backing arrays, per-role counts and arena offsets, and per-worker
	// non-candidate marks and arena cursors.
	stats    []roleStat
	vecs     []int
	occArena []*Occurrence
	counts   []int
	offs     []int
	notCand  [][]bool
	cursors  [][]int

	// groupRoles / salvageEQs: candidate roles, their vector forms back
	// to back, the sorted candidate order, the groups' members and
	// headers, and the tag subset of a group under salvage.
	cands   []int
	forms   []byte
	formOff []int
	order   []int
	members []int
	groups  [][]int
	tags    []int

	// BuildHierarchy / computeSlotProfiles: the classes ordered by
	// coverage, and the hierarchy's separator roles.
	byCov    []covEQ
	sepRoles []bool

	// validateEQ: the candidate's occurrences on one page, its first
	// tuple (σ), and every tuple's positions back to back.
	occs  []*Occurrence
	sigma []*Occurrence
	pos   []int
}

// spareScratch holds released scratches for the next analysis runs,
// kept across garbage collections. A sync.Pool would drop them at every
// collection, so how much a run allocated — and so the collections it
// caused — would depend on when the last one ran. Four covers the
// analyses a process on a few CPUs runs at once (a server wraps on its
// request goroutines) while bounding what idle spares hold, a few
// hundred kilobytes each at the corpus's sample sizes.
var spareScratch = make(chan *scratch, 4)

// scratch returns the run's scratch, taking a spare one on first use
// (Base.run and NewBase release it; hand-built analyses get one lazily
// and never return it).
func (a *Analysis) scratch() *scratch {
	if a.sc == nil {
		select {
		case a.sc = <-spareScratch:
		default:
			a.sc = new(scratch)
		}
	}
	return a.sc
}

// releaseScratch hands the analysis's scratch back to spareScratch. The
// current role keys stay with the analysis (their buffer leaves the
// scratch), and so do the statistics that view into it (a.stats is
// dropped). Every slot that points outside the scratch — occurrences,
// classes — is cleared, so a spare scratch pins no page or DOM tree;
// the pointer-free buffers and the maps keep their capacity.
func (a *Analysis) releaseScratch() {
	sc := a.sc
	if sc == nil {
		return
	}
	a.sc, a.stats = nil, nil
	sc.keyBufs[sc.flip] = nil
	clear(sc.stats[:cap(sc.stats)])
	clear(sc.occArena[:cap(sc.occArena)])
	clear(sc.occs[:cap(sc.occs)])
	clear(sc.sigma[:cap(sc.sigma)])
	clear(sc.byCov[:cap(sc.byCov)])
	select {
	case spareScratch <- sc:
	default: // enough spares already; let this one go
	}
}

// layout returns the flat occurrence layout, computing it on first use
// for analyses built without one.
func (a *Analysis) layout() []int {
	if a.pageOff == nil {
		a.initLayout()
	}
	return a.pageOff
}

// roleIDs returns the flat role assignment, starting every occurrence
// in role 0 for an analysis built without one.
func (a *Analysis) roleIDs() []int32 {
	if off := a.layout(); len(a.roles) != off[len(a.Pages)] {
		a.roles = make([]int32, off[len(a.Pages)])
	}
	return a.roles
}

// workers returns the number of chunks parallel.MapWorkersCtx splits n
// items into under the analysis's worker bound — the number of
// per-worker scratch slots a fan-out over n items needs.
func (a *Analysis) workers(n int) int {
	return min(parallel.Workers(a.params.Workers), n)
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified; callers overwrite or clear.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growMaps returns ms with at least n non-nil maps.
func growMaps[K comparable, V any](ms []map[K]V, n int) []map[K]V {
	for len(ms) < n {
		ms = append(ms, make(map[K]V))
	}
	return ms
}

// growRows returns rows with at least n entries.
func growRows[T any](rows [][]T, n int) [][]T {
	for len(rows) < n {
		rows = append(rows, nil)
	}
	return rows
}
