package eqclass

import (
	"objectrunner/internal/parallel"
	"objectrunner/internal/symtab"
)

// scratch is the working state of one analysis run, reused by every
// round of its fixpoint instead of being rebuilt per round. It belongs
// to the Analysis, never to the shared Base (Base serves concurrent
// runs), and Base.run drops it on return, so a finished analysis — and
// any wrapper holding one — does not pin it. Nothing in it outlives the
// pass that fills it: classes copy what they keep (validateEQ), and the
// Base keeps its snapshot buffers only from an analysis it discards.
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

// scratch returns the run's scratch, creating it on first use (Base.run
// releases it on return; hand-built analyses get one lazily).
func (a *Analysis) scratch() *scratch {
	if a.sc == nil {
		a.sc = &scratch{}
	}
	return a.sc
}

// layout returns the flat occurrence layout, computing it on first use
// for analyses built without one.
func (a *Analysis) layout() []int {
	if a.pageOff == nil {
		a.initLayout()
	}
	return a.pageOff
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
