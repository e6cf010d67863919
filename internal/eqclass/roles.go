package eqclass

import (
	"bytes"
	"cmp"
	"context"
	"slices"

	"objectrunner/internal/parallel"
)

// This file holds the data-parallel core of the staged analysis: role
// re-keying and per-role occurrence aggregation fan out across page
// chunks via parallel.MapWorkersCtx, with deterministic merges that keep
// role numbering — and therefore every downstream artifact — byte-
// identical at any worker count.

// initLayout computes the flat occurrence layout: pageOff[pi] is the
// global index of page pi's first token, pageOff[len(Pages)] the total.
// Flat indices let the parallel passes address per-occurrence state
// (key ids, annotation labels) in shared pre-sized buffers with no
// cross-worker synchronization: chunks are page-aligned, so workers
// write disjoint index ranges.
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

// assignRolesBy recomputes role ids from per-occurrence keys. mk returns
// the key function of one worker: key functions may be stateful
// (ordinal counters), and their state is scoped to single pages
// (ordScope includes the page), so page-aligned chunks see exactly the
// counts a sequential pass would.
//
// Determinism across worker counts: each worker numbers the distinct
// keys of its chunk in first-seen order; the worker lists are merged
// left-to-right into one global list, whose order depends on chunk
// boundaries — but the *set* of distinct keys does not, and the final
// numbering is assigned by sorting that set on the legacy string form
// (with a full field-wise tie-break for distinct keys composing the same
// string, see keyCompare). The sorted numbering is therefore a pure
// function of the key set, independent of chunking.
//
// Like its sequential predecessor, it reports whether the induced
// partition of occurrences changed — ids may be relabelled freely (keys
// carry generation tags), so change is detected as a broken old↔new
// bijection, which is order-independent. Every working buffer, the new
// role-key list included, comes from the run's scratch.
func (a *Analysis) assignRolesBy(mk func(worker int) func(*Occurrence) roleKey) bool {
	np := len(a.Pages)
	off := a.layout()
	roles := a.roleIDs() // before the fan-out: key functions read roles
	sc := a.scratch()
	sc.perOcc = resize(sc.perOcc, off[np])
	perOcc := sc.perOcc
	nw := a.workers(np)
	sc.seen = growMaps(sc.seen, nw)
	sc.localKeys = growRows(sc.localKeys, nw)
	parallel.MapWorkersCtx(nil, a.params.Workers, np,
		func(_ context.Context, w int, c parallel.Chunk) (struct{}, error) {
			key := mk(w)
			seen := sc.seen[w]
			clear(seen)
			keys := sc.localKeys[w][:0]
			for pi := c.Lo; pi < c.Hi; pi++ {
				gi := off[pi]
				for _, o := range a.Pages[pi] {
					k := key(o)
					id, ok := seen[k]
					if !ok {
						id = int32(len(keys))
						seen[k] = id
						keys = append(keys, k)
					}
					perOcc[gi] = id
					gi++
				}
			}
			sc.localKeys[w] = keys
			return struct{}{}, nil
		})

	// Merge the worker-local key lists into a global first-seen list,
	// remembering each local id's global id.
	if sc.idOf == nil {
		sc.idOf = make(map[roleKey]int32)
	}
	idOf := sc.idOf
	clear(idOf)
	keys := sc.keys[:0]
	sc.remap = growRows(sc.remap, nw)
	remap := sc.remap[:nw]
	for w, lk := range sc.localKeys[:nw] {
		rm := resize(remap[w], len(lk))
		for li, k := range lk {
			gid, ok := idOf[k]
			if !ok {
				gid = int32(len(keys))
				idOf[k] = gid
				keys = append(keys, k)
			}
			rm[li] = gid
		}
		remap[w] = rm
	}
	sc.keys = keys

	// Final numbering: sort the distinct keys on their legacy string form
	// (see appendLegacy — the order is observable through frozen stale
	// role ids) and compose each worker remap with the sort ranks. The
	// legacy forms sit back to back in one byte arena.
	legacy := sc.legacy[:0]
	lo := resize(sc.legacyOff, len(keys)+1)
	for i, k := range keys {
		lo[i] = len(legacy)
		legacy = a.appendLegacy(legacy, k)
	}
	lo[len(keys)] = len(legacy)
	sc.legacy, sc.legacyOff = legacy, lo
	perm := resize(sc.perm, len(keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(x, y int32) int {
		if c := bytes.Compare(legacy[lo[x]:lo[x+1]], legacy[lo[y]:lo[y+1]]); c != 0 {
			return c
		}
		return keyCompare(keys[x], keys[y])
	})
	sc.perm = perm
	rank := resize(sc.rank, len(keys))
	sc.rank = rank
	sc.flip ^= 1
	sorted := resize(sc.keyBufs[sc.flip], len(keys))
	sc.keyBufs[sc.flip] = sorted
	for newID, old := range perm {
		rank[old] = int32(newID)
		sorted[newID] = keys[old]
	}
	for _, rm := range remap {
		for li := range rm {
			rm[li] = rank[rm[li]]
		}
	}

	// Commit pass: rewrite roles in page order, tracking the old↔new
	// bijection. The boolean outcome is a property of the two partitions,
	// not of visit order. The initial assignment starts from every
	// occurrence in role 0.
	oldRoles := max(len(a.roleKeys), 1)
	sc.oldToNew = resize(sc.oldToNew, oldRoles)
	sc.newToOld = resize(sc.newToOld, len(sorted))
	oldToNew, newToOld := sc.oldToNew, sc.newToOld
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	for i := range newToOld {
		newToOld[i] = -1
	}
	changed := false
	chunks := parallel.Chunks(a.params.Workers, np)
	w := 0
	for pi, page := range a.Pages {
		for w < len(chunks)-1 && pi >= chunks[w].Hi {
			w++
		}
		rm := remap[w]
		for gi := off[pi]; gi < off[pi]+len(page); gi++ {
			r, prev := int(rm[perOcc[gi]]), int(roles[gi])
			if n := oldToNew[prev]; n >= 0 {
				if n != r {
					changed = true
				}
			} else {
				oldToNew[prev] = r
			}
			if old := newToOld[r]; old >= 0 {
				if old != prev {
					changed = true
				}
			} else {
				newToOld[r] = prev
			}
			roles[gi] = int32(r)
		}
	}
	a.roleKeys = sorted
	// Any renumbering (even an unchanged partition gets fresh ids from
	// the legacy sort) invalidates role-indexed caches.
	a.stats = nil
	return changed
}

// keyCompare is the deterministic field-wise tie-break for role keys
// whose legacy strings collide: keys that differ only in prev, which the
// legacy form leaves out, and the pathological case of a path or label
// that itself contains the separator sequences. It keeps the sort total
// so the numbering cannot depend on chunk boundaries.
func keyCompare(x, y roleKey) int {
	if c := cmp.Compare(x.kind, y.kind); c != 0 {
		return c
	}
	if c := cmp.Compare(x.val, y.val); c != 0 {
		return c
	}
	if c := cmp.Compare(x.pth, y.pth); c != 0 {
		return c
	}
	if c := cmp.Compare(x.gen, y.gen); c != 0 {
		return c
	}
	if c := cmp.Compare(x.eq, y.eq); c != 0 {
		return c
	}
	if c := cmp.Compare(x.slot, y.slot); c != 0 {
		return c
	}
	if c := cmp.Compare(x.ord, y.ord); c != 0 {
		return c
	}
	if c := cmp.Compare(x.ann, y.ann); c != 0 {
		return c
	}
	return cmp.Compare(x.prev, y.prev)
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
	sc.notCand = growRows(sc.notCand, nw)
	sc.cursors = growRows(sc.cursors, nw)
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
