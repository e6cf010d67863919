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
// outlives the pass or the round that fills it: what an analysis or a
// Base keeps — its classes, the snapshot statistics — is allocated
// apart from the scratch.
type scratch struct {
	// computeScopes: the hierarchy's innermost slot per occurrence, flat
	// in the pageOff layout.
	scopeBuf []scope

	// differentiate / slotOrdinals: the frozen-role bitmap, per-occurrence
	// ordinals, and per-worker slot run states with the slots one role
	// touched.
	frozen  []bool
	ords    []int32
	runs    [][]slotRun
	touched [][]int32

	// annotationSyms: flat per-occurrence label buffer.
	labels []symtab.Sym

	// assignBaseRoles: the criterion-i key numbering.
	baseIDs map[baseKey]int32

	// assignRolesBy: per-occurrence worker-local key ids, per-worker
	// first-seen key lists, the merged list, and each worker's local to
	// global id map.
	perOcc []int32
	local  []keyList
	merged keyList
	remap  [][]int32

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

	// groupRoles / salvageEQs: candidate roles in group order, the
	// groups' headers, and the tag subset of a group under salvage.
	cands  []int
	groups [][]int
	tags   []int

	// BuildHierarchy / computeSlotProfiles: the classes ordered by
	// coverage, and the hierarchy's separator roles.
	byCov    []covEQ
	sepRoles []bool

	// validateEQ: the candidate's occurrences on one page, its first
	// tuple (σ), and every tuple's positions back to back; the classes of
	// the fixpoint's rounds (see classArena).
	occs    []*Occurrence
	sigma   []*Occurrence
	pos     []int
	classes classArena
}

// classArena backs the classes a find-EQs round of the fixpoint
// validates. They live until the next round replaces them, so the
// arena is reset per round and reuses its buffers; only the classes an
// analysis keeps (the final round's, and the base's prototypes) are
// allocated on their own. A buffer that runs out is replaced by one
// twice as large, and the classes carved from the old one keep it.
type classArena struct {
	eqs    []EQ
	ints   []int
	tuples []Tuple
	rows   [][]Tuple
	descs  []Desc
}

// reset starts a round: every buffer is empty again.
func (ar *classArena) reset() {
	ar.eqs, ar.ints, ar.tuples = ar.eqs[:0], ar.ints[:0], ar.tuples[:0]
	ar.rows, ar.descs = ar.rows[:0], ar.descs[:0]
}

// carve returns n elements from the end of *buf, growing it into a new
// buffer when it lacks the room. The contents are unspecified; callers
// overwrite or clear. Carving from an empty buffer allocates exactly n.
func carve[T any](buf *[]T, n int) []T {
	b := *buf
	if cap(b)-len(b) < n {
		b = make([]T, 0, max(2*cap(b), n))
	}
	*buf = b[:len(b)+n]
	return b[len(b) : len(b)+n : len(b)+n]
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

// releaseScratch hands the analysis's scratch back to spareScratch; the
// statistics and the painting that view into it are dropped from the
// analysis. Every slot that points outside the scratch — occurrences,
// classes, descriptors — is cleared, so a spare scratch pins no page or
// DOM tree; the pointer-free buffers and the map keep their capacity.
func (a *Analysis) releaseScratch() {
	sc := a.sc
	if sc == nil {
		return
	}
	a.sc, a.stats, a.scopes = nil, nil, nil
	clear(sc.stats[:cap(sc.stats)])
	clear(sc.occArena[:cap(sc.occArena)])
	clear(sc.occs[:cap(sc.occs)])
	clear(sc.sigma[:cap(sc.sigma)])
	clear(sc.byCov[:cap(sc.byCov)])
	clear(sc.classes.eqs[:cap(sc.classes.eqs)])
	clear(sc.classes.descs[:cap(sc.classes.descs)])
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

// grow returns s with at least n entries, keeping the ones it has.
func grow[T any](s []T, n int) []T {
	for len(s) < n {
		var zero T
		s = append(s, zero)
	}
	return s
}
