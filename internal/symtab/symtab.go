// Package symtab provides a small, concurrency-safe symbol table that
// maps token-signature strings to dense uint32 symbols. Tables are
// scoped per wrapper (and per analysis) rather than process-global, so
// symbol values stay small, serialize compactly, and never leak
// vocabulary between unrelated wrappers.
//
// Symbol 0 (None) is reserved as "unknown": Lookup returns it for
// strings the table has never seen, which makes read-only serving-time
// lookups safe — an unknown token can never compare equal to a learned
// descriptor, whose symbols are always non-zero.
//
// A table is built by interning and then read by lookups. Freeze ends
// the building: interning a string a frozen table does not hold
// panics, so the table can no longer change, and Lookup reads it
// without a lock.
package symtab

import (
	"fmt"
	"sync"
)

// Sym is a dense symbol identifier. The zero value is None.
type Sym uint32

// None is the reserved "unknown" symbol. Intern never returns it.
const None Sym = 0

// Table interns strings to dense symbols. Symbols are assigned in
// insertion order starting at 1, so a fixed interning order yields a
// deterministic table. The zero Table is not usable; call New.
type Table struct {
	mu     sync.RWMutex
	ids    map[string]Sym
	strs   []string // strs[0] is the empty placeholder for None
	frozen bool     // set by Freeze; guarded by mu
}

// New returns an empty table.
func New() *Table {
	return &Table{
		ids:  make(map[string]Sym),
		strs: make([]string, 1),
	}
}

// Intern returns the symbol for s, assigning the next dense symbol if s
// has not been seen. Safe for concurrent use, but concurrent first
// interns race for assignment order — callers that need deterministic
// symbol values must intern sequentially. On a frozen table Intern
// still returns the symbols the table holds, and panics on a string it
// does not: a frozen table never grows.
func (t *Table) Intern(s string) Sym {
	t.mu.RLock()
	y, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		return y
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if y, ok := t.ids[s]; ok {
		return y
	}
	if t.frozen {
		panic(fmt.Sprintf("symtab: Intern(%q) on a frozen table", s))
	}
	y = Sym(len(t.strs))
	t.ids[s] = y
	t.strs = append(t.strs, s)
	return y
}

// Freeze ends interning into t and returns it. From then on Intern
// panics on any string t does not hold, so t never changes again. A
// wrapper freezes its table once its descriptors are bound, before any
// page is served, and every extract reads it without a lock.
func (t *Table) Freeze() *Table {
	t.mu.Lock()
	t.frozen = true
	t.mu.Unlock()
	return t
}

// Lookup returns the symbol for s, or None if s was never interned. It
// never grows the table and takes no lock: it must not run concurrently
// with an Intern that adds a string. A frozen table guarantees that,
// which is the serving path's case; so does a table whose interning
// has finished before its readers start.
func (t *Table) Lookup(s string) Sym {
	return t.ids[s]
}

// LookupBytes is Lookup for a byte-slice key. The map index expression
// with an inline string conversion compiles to a lookup without
// materializing the string, so the serving-path tokenizer can probe the
// frozen table from its scratch buffers with zero allocations.
func (t *Table) LookupBytes(b []byte) Sym {
	return t.ids[string(b)]
}

// StringOf returns the string a symbol was interned from. None and
// out-of-range symbols return "".
func (t *Table) StringOf(y Sym) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(y) >= len(t.strs) {
		return ""
	}
	return t.strs[y]
}

// Len reports how many symbols have been interned (excluding None).
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.strs) - 1
}

// Symbols returns the interned strings in symbol order (symbol i+1 is
// element i). The slice is a copy and is the serialization form of the
// table: Restore(t.Symbols()) reproduces t exactly.
func (t *Table) Symbols() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, len(t.strs)-1)
	copy(out, t.strs[1:])
	return out
}

// Merge interns every symbol of local into t, in local symbol order, and
// returns the remap table: remap[s] is t's symbol for local symbol s
// (remap[None] = None, and len(remap) = local.Len()+1). Symbols t already
// knows keep their existing ids; new ones are appended densely.
//
// Merging worker-local tables in worker order — where worker w interned
// the tokens of a contiguous page chunk in page-then-token order —
// reproduces exactly the numbering a single sequential page-then-token
// pass over all pages would assign: a symbol first appearing in chunk w
// is absent from every earlier chunk's table, so the left-to-right merge
// assigns it an id after all symbols first seen in chunks 0..w-1 and
// before all symbols first seen later, in its first-appearance position
// within chunk w. That makes downstream symbol ids — and everything
// serialized from them — independent of the worker count.
func (t *Table) Merge(local *Table) []Sym {
	local.mu.RLock()
	defer local.mu.RUnlock()
	remap := make([]Sym, len(local.strs))
	for s := 1; s < len(local.strs); s++ {
		remap[s] = t.Intern(local.strs[s])
	}
	return remap
}

// IdentityRemap reports whether a Merge remap maps every symbol to
// itself, letting callers skip the occurrence-rewrite pass for chunks
// whose local numbering already matches the canonical table (always true
// for the first table merged into an empty one).
func IdentityRemap(remap []Sym) bool {
	for s, y := range remap {
		if y != Sym(s) {
			return false
		}
	}
	return true
}

// Restore rebuilds a table from a Symbols() snapshot. Duplicate entries
// are rejected: they could only have been produced by a corrupted
// stream and would silently alias two symbols on lookup.
func Restore(symbols []string) (*Table, error) {
	t := &Table{
		ids:  make(map[string]Sym, len(symbols)),
		strs: make([]string, 1, len(symbols)+1),
	}
	for i, s := range symbols {
		if _, dup := t.ids[s]; dup {
			return nil, fmt.Errorf("symtab: duplicate symbol %q at index %d", s, i)
		}
		t.ids[s] = Sym(i + 1)
		t.strs = append(t.strs, s)
	}
	return t, nil
}
