package eqclass

import (
	"context"
	"math"

	"objectrunner/internal/parallel"
	"objectrunner/internal/symtab"
)

// This file holds the data-parallel core of the staged analysis: role
// re-keying fans out across page chunks, ordinal counting across role
// chunks, and per-role occurrence aggregation across page chunks again,
// via parallel.MapWorkersCtx, with deterministic merges that keep role
// numbering — and therefore every downstream artifact — byte-identical
// at any worker count.

// initLayout computes the flat occurrence layout: pageOff[pi] is the
// global index of page pi's first token, pageOff[len(Pages)] the total.
// Flat indices let the parallel passes address per-occurrence state
// (key ids, annotation labels, ordinals, scopes) in shared pre-sized
// buffers with no cross-worker synchronization: chunks are page- or
// role-aligned, so workers write disjoint index sets.
func (a *Analysis) initLayout() {
	off := make([]int, len(a.Pages)+1)
	n := 0
	for i, page := range a.Pages {
		off[i] = n
		n += len(page)
	}
	off[len(a.Pages)] = n
	a.pageOff = off
}

// renumber, when set, is called on every new assignment of n roles and
// may return a permutation of its numbering (perm[id] is the id to use
// instead); nil keeps the first-seen ids. A refinement step calls it
// before writing the new ids, while the analysis still holds the roles
// and classes the step read. Tests set it to show that no output
// depends on role ids, and that the classes a step freezes roles
// through carry ids of the current numbering.
var renumber func(a *Analysis, roles int) []int32

// assignBaseRoles is criterion i: it numbers the HTML-feature keys
// (kind, value, path) of the occurrences in first-seen page order. Every
// occurrence starts in role 0 here, so the keys cannot be chained by
// role the way assignRolesBy chains them; the pass runs once per Base,
// on the run's scratch map.
func (a *Analysis) assignBaseRoles() {
	roles := a.roleIDs()
	sc := a.scratch()
	if sc.baseIDs == nil {
		sc.baseIDs = make(map[baseKey]int32)
	}
	ids := sc.baseIDs
	clear(ids)
	gi := 0
	for _, page := range a.Pages {
		for _, o := range page {
			k := baseKey{o.Kind, o.Val, o.Pth}
			id, ok := ids[k]
			if !ok {
				id = int32(len(ids))
				ids[k] = id
			}
			roles[gi] = id
			gi++
		}
	}
	if perm := a.permutation(len(ids)); perm != nil {
		for gi, r := range roles {
			roles[gi] = perm[r]
		}
	}
	a.nRoles = len(ids)
}

// baseKey is the HTML-feature role key of criterion i.
type baseKey struct {
	kind     TokKind
	val, pth symtab.Sym
}

// roleKey is the role-differentiation key of criteria (ii)–(iv). prev is
// the occurrence's role before the step: two occurrences of different
// roles never share a key, so a step can split roles but never merge
// them (DESIGN §16). Within one role, slot is the hierarchy slot
// containing the occurrence (-1 outside every slot, and for frozen
// roles) and ord its ordinal there; ann is the interned annotation label
// of criteria (iii)/(iv), symtab.None when absent. The role already
// fixes kind, value and path, so the key leaves them out.
type roleKey struct {
	slot, ord int32
	ann       symtab.Sym
	prev      int32
}

// keyList numbers distinct role keys in first-seen order. Every key
// refines its occurrence's current role, so a key is found through that
// role: head[prev] is the newest key of the role, next links each key
// to the one before it — an array walk over the few keys one role
// splits into, with no hashing.
type keyList struct {
	keys []roleKey
	next []int32
	head []int32
}

// reset empties the list for keys refining roles [0, roles).
func (l *keyList) reset(roles int) {
	l.keys, l.next = l.keys[:0], l.next[:0]
	l.head = resize(l.head, roles)
	for i := range l.head {
		l.head[i] = -1
	}
}

// id returns k's number, appending k when it is new.
func (l *keyList) id(k roleKey) int32 {
	for id := l.head[k.prev]; id >= 0; id = l.next[id] {
		if l.keys[id] == k {
			return id
		}
	}
	id := int32(len(l.keys))
	l.keys = append(l.keys, k)
	l.next = append(l.next, l.head[k.prev])
	l.head[k.prev] = id
	return id
}

// assignRolesBy refines the role partition by the key of every
// occurrence (key is called with the flat index) and reports whether it
// changed. Each worker numbers the distinct keys of its page chunk in
// first-seen order; the worker lists are merged left to right into one
// list — which sees only distinct keys — and that is the sequential
// first-seen order, whatever the chunking. No sort is needed for the
// numbering to be worker-count independent.
//
// Every key carries the occurrence's current role, so the new partition
// refines the old one: it changed exactly when it has more roles. Role
// ids are first-seen ids, so an unchanged partition keeps every id, and
// the per-role aggregation and the classes of the round stay valid;
// after a change they are stale (a.stats is dropped). Every working
// buffer comes from the run's scratch.
func (a *Analysis) assignRolesBy(key func(gi int) roleKey) bool {
	np := len(a.Pages)
	off := a.layout()
	roles := a.roleIDs()
	old := a.roleCount()
	sc := a.scratch()
	sc.perOcc = resize(sc.perOcc, off[np])
	perOcc := sc.perOcc
	nw := a.workers(np)
	sc.local = grow(sc.local, nw)
	parallel.MapWorkersCtx(nil, a.params.Workers, np,
		func(_ context.Context, w int, c parallel.Chunk) (struct{}, error) {
			l := &sc.local[w]
			l.reset(old)
			for gi := off[c.Lo]; gi < off[c.Hi]; gi++ {
				perOcc[gi] = l.id(key(gi))
			}
			return struct{}{}, nil
		})

	// Merge the worker-local lists into the global first-seen list,
	// remembering each local id's global id.
	merged := &sc.merged
	merged.reset(old)
	sc.remap = grow(sc.remap, nw)
	for w := range nw {
		keys := sc.local[w].keys
		rm := resize(sc.remap[w], len(keys))
		for li, k := range keys {
			rm[li] = merged.id(k)
		}
		sc.remap[w] = rm
	}
	n := len(merged.keys)
	changed := n != old
	perm := a.permutation(n)
	if perm != nil {
		for _, rm := range sc.remap[:nw] {
			for li, id := range rm {
				rm[li] = perm[id]
			}
		}
	}
	parallel.MapWorkersCtx(nil, a.params.Workers, np,
		func(_ context.Context, w int, c parallel.Chunk) (struct{}, error) {
			rm := sc.remap[w]
			for gi := off[c.Lo]; gi < off[c.Hi]; gi++ {
				roles[gi] = rm[perOcc[gi]]
			}
			return struct{}{}, nil
		})
	if changed || perm != nil {
		a.stats = nil
	}
	a.nRoles = n
	return changed
}

// permutation calls the renumber hook, if one is set, on an assignment
// of n roles about to be committed.
func (a *Analysis) permutation(n int) []int32 {
	if renumber == nil {
		return nil
	}
	return renumber(a, n)
}

// slotOrdinals writes, for every occurrence of a free role inside a
// hierarchy slot, its ordinal among the role's occurrences in that slot
// of that tuple, capped one above the role's minimal count over the
// slot's tuples: positional differentiation settles on the minimal
// number of consecutive occurrences (paper §III.C) and buckets the
// overflow. The result is a flat per-occurrence buffer in the run's
// scratch; only the entries of free, slotted occurrences are written.
//
// It walks each free role's page-ordered occurrence list (from the
// round's findEQs or shard) twice: the first walk takes the run-length
// minimum per slot — a role's occurrences in one slot of one tuple are
// consecutive among its occurrences in that slot, since tuples of a
// class never interleave — and the second numbers the occurrences. The
// per-slot run state is an array indexed by hierarchy slot, reset
// through the slots the role touched. The walks fan out over role
// chunks: every occurrence has exactly one role, hence one writer.
func (a *Analysis) slotOrdinals(stats []roleStat, scopes []scope, frozen []bool, nslots int) []int32 {
	off := a.pageOff
	sc := a.scratch()
	sc.ords = resize(sc.ords, off[len(a.Pages)])
	ords := sc.ords
	n := len(stats)
	nw := a.workers(n)
	sc.runs = grow(sc.runs, nw)
	sc.touched = grow(sc.touched, nw)
	parallel.MapWorkersCtx(nil, a.params.Workers, n,
		func(_ context.Context, w int, c parallel.Chunk) (struct{}, error) {
			runs := resize(sc.runs[w], nslots)
			sc.runs[w] = runs
			for i := range runs {
				runs[i] = slotRun{page: -1}
			}
			touched := sc.touched[w]
			for r := c.Lo; r < c.Hi; r++ {
				if frozen[r] {
					continue
				}
				occs := stats[r].occs
				touched = touched[:0]
				for _, o := range occs {
					in := scopes[off[o.Page]+o.Pos]
					if in.slot < 0 {
						continue
					}
					s := &runs[in.slot]
					switch {
					case s.min == 0: // the role's first occurrence in this slot
						touched = append(touched, in.slot)
						*s = slotRun{page: int32(o.Page), tuple: in.tuple, count: 1, min: math.MaxInt32}
					case s.page == int32(o.Page) && s.tuple == in.tuple:
						s.count++
					default:
						s.min = min(s.min, s.count)
						s.page, s.tuple, s.count = int32(o.Page), in.tuple, 1
					}
				}
				if len(touched) == 0 {
					continue
				}
				for _, g := range touched {
					s := &runs[g]
					s.min = min(s.min, s.count) // the open run is a run like any other
					s.page = -1
				}
				for _, o := range occs {
					gi := off[o.Page] + o.Pos
					in := scopes[gi]
					if in.slot < 0 {
						continue
					}
					s := &runs[in.slot]
					if s.page == int32(o.Page) && s.tuple == in.tuple {
						s.count++
					} else {
						s.page, s.tuple, s.count = int32(o.Page), in.tuple, 1
					}
					ords[gi] = min(s.count, s.min+1)
				}
				for _, g := range touched {
					runs[g] = slotRun{page: -1}
				}
			}
			sc.touched[w] = touched
			return struct{}{}, nil
		})
	return ords
}

// slotRun is slotOrdinals' state for one hierarchy slot while it walks
// one role: the current run's identity (page, tuple) and length, and the
// minimal length of the role's runs in the slot. min is 0 until the role
// first occurs in the slot.
type slotRun struct {
	page, tuple int32
	count, min  int32
}

// computeRoleStats aggregates per-role occurrence vectors, page
// coverage, template candidacy, and occurrence lists (page order, then
// position). Roles are dense, so the result is a flat []roleStat. The
// two passes fan out across page chunks: vector columns are per-page,
// so workers write disjoint slots of the shared backing array, and the
// occurrence arena is filled through per-(worker, role) cursors derived
// from the vector prefix sums — every cell has exactly one writer. The
// result lives in the run's scratch and is valid until the next call.
func (a *Analysis) computeRoleStats() []roleStat {
	np := len(a.Pages)
	n := a.roleCount()
	sc := a.scratch()
	sc.stats = resize(sc.stats, n)
	sc.vecs = resize(sc.vecs, n*np)
	stats, vecs := sc.stats, sc.vecs
	clear(vecs)
	for r := range stats {
		stats[r] = roleStat{vector: vecs[r*np : (r+1)*np : (r+1)*np], cand: true}
	}
	roles := a.roleIDs()
	off := a.pageOff
	nw := a.workers(np)
	sc.notCand = grow(sc.notCand, nw)
	sc.cursors = grow(sc.cursors, nw)
	// Pass 1: occurrence vectors, plus per-worker non-candidate marks
	// (merged by OR — commutative, so merge order is irrelevant).
	parallel.MapWorkersCtx(nil, a.params.Workers, np,
		func(_ context.Context, w int, c parallel.Chunk) (struct{}, error) {
			notCand := resize(sc.notCand[w], n)
			clear(notCand)
			sc.notCand[w] = notCand
			for pi := c.Lo; pi < c.Hi; pi++ {
				roles := roles[off[pi]:off[pi+1]]
				for i, o := range a.Pages[pi] {
					r := roles[i]
					vecs[int(r)*np+pi]++
					if !a.templateCandidate(o) {
						notCand[r] = true
					}
				}
			}
			return struct{}{}, nil
		})
	for _, notCand := range sc.notCand[:nw] {
		for r, bad := range notCand {
			if bad {
				stats[r].cand = false
			}
		}
	}
	// Page coverage and arena offsets from the completed vectors.
	sc.counts = resize(sc.counts, n)
	sc.offs = resize(sc.offs, n+1)
	counts, offs := sc.counts, sc.offs
	total := 0
	for r := range stats {
		counts[r] = 0
		for _, c := range stats[r].vector {
			if c > 0 {
				stats[r].pages++
			}
			counts[r] += c
		}
		offs[r] = total
		total += counts[r]
	}
	offs[n] = total
	sc.occArena = resize(sc.occArena, total)
	occArena := sc.occArena
	// Pass 2: fill the per-role occurrence lists. A worker's cursor for
	// role r starts at offs[r] plus the occurrences of r on all pages
	// before its chunk — page-major iteration within the chunk then
	// reproduces exactly the sequential page order.
	if total > 0 {
		parallel.MapWorkersCtx(nil, a.params.Workers, np,
			func(_ context.Context, w int, c parallel.Chunk) (struct{}, error) {
				cur := resize(sc.cursors[w], n)
				sc.cursors[w] = cur
				for r := 0; r < n; r++ {
					base := offs[r]
					for pi := 0; pi < c.Lo; pi++ {
						base += vecs[r*np+pi]
					}
					cur[r] = base
				}
				for pi := c.Lo; pi < c.Hi; pi++ {
					roles := roles[off[pi]:off[pi+1]]
					for i, o := range a.Pages[pi] {
						r := roles[i]
						occArena[cur[r]] = o
						cur[r]++
					}
				}
				return struct{}{}, nil
			})
	}
	for r := range stats {
		stats[r].occs = occArena[offs[r]:offs[r+1]:offs[r+1]]
	}
	return stats
}
