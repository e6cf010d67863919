package eqclass

import "objectrunner/internal/symtab"

// Persistence of the learned token-role state (the wrapper serving-cache
// subsystem). An equivalence class survives a restart as its
// page-independent parts: the role ids and occurrence vector learned from
// the sample, and the separator descriptors — the token table extraction
// uses to re-locate the template on unseen pages. The sample-bound parts
// (per-page tuples, live occurrences) are inference-time state and are
// not persisted; the hierarchy links are restored by the template layer,
// which owns the tree shape.

// PersistedDesc is the persisted form of one separator descriptor. The
// Value and Path strings are stored once in the wrapper's symbol list
// and referenced here by id (Val/Pth).
type PersistedDesc struct {
	Kind    int `json:"kind"`
	Val     int `json:"val,omitempty"`
	Pth     int `json:"pth,omitempty"`
	Ordinal int `json:"ordinal,omitempty"`
}

// PersistedEQ is the persisted form of one equivalence class, sans
// hierarchy links and sample tuples.
type PersistedEQ struct {
	ID         int             `json:"id"`
	Roles      []int           `json:"roles,omitempty"`
	Vector     []int           `json:"vector,omitempty"`
	Descs      []PersistedDesc `json:"descs"`
	ParentSlot int             `json:"parent_slot"`
	OrderHint  float64         `json:"order_hint,omitempty"`
}

// Persist returns the class's persisted form.
func (e *EQ) Persist() PersistedEQ {
	p := PersistedEQ{
		ID:         e.ID,
		Roles:      e.Roles,
		Vector:     e.Vector,
		ParentSlot: e.ParentSlot,
		OrderHint:  e.OrderHint,
	}
	for _, d := range e.Descs {
		p.Descs = append(p.Descs, PersistedDesc{
			Kind: int(d.Kind), Val: int(d.Val), Pth: int(d.Pth), Ordinal: d.Ordinal,
		})
	}
	return p
}

// Restore rebuilds the class, resolving descriptor strings from their
// symbol ids in tab. Parent and Children stay nil — the caller re-links
// them from the persisted tree shape.
func (p PersistedEQ) Restore(tab *symtab.Table) *EQ {
	e := &EQ{
		ID:         p.ID,
		Roles:      p.Roles,
		Vector:     p.Vector,
		ParentSlot: p.ParentSlot,
		OrderHint:  p.OrderHint,
	}
	for _, d := range p.Descs {
		val, pth := symtab.Sym(d.Val), symtab.Sym(d.Pth)
		e.Descs = append(e.Descs, Desc{
			Kind: TokKind(d.Kind), Val: val, Pth: pth, Ordinal: d.Ordinal,
			Value: tab.StringOf(val), Path: tab.StringOf(pth),
		})
	}
	return e
}
