package sod

import "fmt"

// Wrapper persistence (the serving-cache subsystem) needs SOD type trees
// to survive a process restart with their pointer graph intact: template
// matches key field bindings by *Type identity, and extraction compares
// those keys against the canonical tuple's component pointers. The pool
// below therefore interns every reachable Type node exactly once and
// stores references by index, so decoding rebuilds an isomorphic pointer
// graph — shared nodes stay shared, distinct nodes stay distinct.
//
// Rules are deliberately not persisted: they hold arbitrary predicates
// (functions) and belong to the live SOD a wrapper is rebound to at load
// time.

// PersistedType is the flat persisted form of one Type node. References
// to other nodes (Elem, Fields) are pool indices; -1 means nil.
type PersistedType struct {
	Kind     int    `json:"kind"`
	Name     string `json:"name,omitempty"`
	RecKind  string `json:"rec_kind,omitempty"`
	RecArg   string `json:"rec_arg,omitempty"`
	Elem     int    `json:"elem"`
	MultMin  int    `json:"mult_min,omitempty"`
	MultMax  int    `json:"mult_max,omitempty"`
	Fields   []int  `json:"fields,omitempty"`
	Optional bool   `json:"optional,omitempty"`
}

// TypePool interns Type nodes for persistence. Add the roots you need,
// keep the returned ids, and persist Records; DecodeTypePool rebuilds the
// pool into live types addressable by the same ids.
type TypePool struct {
	records []PersistedType
	ids     map[*Type]int
}

// NewTypePool returns an empty pool.
func NewTypePool() *TypePool {
	return &TypePool{ids: make(map[*Type]int)}
}

// Add interns the type tree rooted at t (depth-first, deterministically)
// and returns t's pool id; nil maps to -1. Re-adding a known node is a
// cheap lookup, so shared subtrees keep one record.
func (p *TypePool) Add(t *Type) int {
	if t == nil {
		return -1
	}
	if id, ok := p.ids[t]; ok {
		return id
	}
	// Reserve the slot before descending so cycles cannot recurse forever
	// (well-formed SODs are acyclic, but a corrupt graph must not hang).
	id := len(p.records)
	p.ids[t] = id
	p.records = append(p.records, PersistedType{})
	rec := PersistedType{
		Kind:     int(t.Kind),
		Name:     t.Name,
		RecKind:  t.Recognizer.Kind,
		RecArg:   t.Recognizer.Arg,
		Elem:     p.Add(t.Elem),
		MultMin:  t.Mult.Min,
		MultMax:  t.Mult.Max,
		Optional: t.Optional,
	}
	for _, f := range t.Fields {
		rec.Fields = append(rec.Fields, p.Add(f))
	}
	p.records[id] = rec
	return id
}

// Records returns the persisted records, indexed by pool id.
func (p *TypePool) Records() []PersistedType { return p.records }

// DecodeTypePool rebuilds live types from persisted records. The returned
// slice is indexed by pool id. References out of range, a set without an
// element type, a disjunction of other than two types, a missing field
// type, an unknown kind, and a type that contains itself (rendering or
// walking it would never end) are errors.
func DecodeTypePool(records []PersistedType) ([]*Type, error) {
	types := make([]*Type, len(records))
	backing := make([]Type, len(records))
	for i := range types {
		types[i] = &backing[i]
	}
	ref := func(id int) (*Type, error) {
		if id == -1 {
			return nil, nil
		}
		if id < 0 || id >= len(types) {
			return nil, fmt.Errorf("sod: type pool reference %d out of range [0, %d)", id, len(types))
		}
		return types[id], nil
	}
	for i, rec := range records {
		if err := checkShape(i, rec); err != nil {
			return nil, err
		}
		t := types[i]
		t.Kind = Kind(rec.Kind)
		t.Name = rec.Name
		t.Recognizer = RecognizerRef{Kind: rec.RecKind, Arg: rec.RecArg}
		t.Mult = Multiplicity{Min: rec.MultMin, Max: rec.MultMax}
		t.Optional = rec.Optional
		elem, err := ref(rec.Elem)
		if err != nil {
			return nil, err
		}
		t.Elem = elem
		for _, fid := range rec.Fields {
			f, err := ref(fid)
			if err != nil {
				return nil, err
			}
			t.Fields = append(t.Fields, f)
		}
	}
	if err := checkAcyclic(records); err != nil {
		return nil, err
	}
	return types, nil
}

// checkShape reports a record whose kind is unknown or whose references
// do not fit its kind: rendering it would dereference a missing type.
func checkShape(id int, rec PersistedType) error {
	switch Kind(rec.Kind) {
	case KindEntity, KindTuple:
	case KindSet:
		if rec.Elem == -1 {
			return fmt.Errorf("sod: type pool entry %d is a set without an element type", id)
		}
	case KindDisjunction:
		if len(rec.Fields) != 2 {
			return fmt.Errorf("sod: type pool entry %d is a disjunction of %d types, want 2", id, len(rec.Fields))
		}
	default:
		return fmt.Errorf("sod: type pool entry %d has unknown kind %d", id, rec.Kind)
	}
	for _, f := range rec.Fields {
		if f == -1 {
			return fmt.Errorf("sod: type pool entry %d has a missing field type", id)
		}
	}
	return nil
}

// checkAcyclic reports a type that is its own element or field, directly
// or through others. References must already be in range.
func checkAcyclic(records []PersistedType) error {
	const (
		unseen = iota
		onPath
		done
	)
	state := make([]uint8, len(records))
	var visit func(id int) error
	visit = func(id int) error {
		switch state[id] {
		case onPath:
			return fmt.Errorf("sod: type pool entry %d contains itself", id)
		case done:
			return nil
		}
		state[id] = onPath
		rec := records[id]
		if rec.Elem >= 0 {
			if err := visit(rec.Elem); err != nil {
				return err
			}
		}
		for _, f := range rec.Fields {
			if err := visit(f); err != nil {
				return err
			}
		}
		state[id] = done
		return nil
	}
	for id := range records {
		if err := visit(id); err != nil {
			return err
		}
	}
	return nil
}
