package template

import (
	"fmt"
	"sort"

	"objectrunner/internal/eqclass"
	"objectrunner/internal/sod"
	"objectrunner/internal/symtab"
)

// Persistence of the learned template state (the wrapper serving-cache
// subsystem): the annotated template tree and the SOD match bindings,
// flattened to index-based records so the pointer graph — node identity
// in binding paths, *sod.Type identity in field keys — survives a
// round-trip intact. Types are interned in the caller's sod.TypePool;
// nodes are interned here by pre-order walk of the tree.

// PersistedSlot is the persisted form of one slot profile.
type PersistedSlot struct {
	Types     map[string]int `json:"types,omitempty"`
	TextCount int            `json:"text_count,omitempty"`
	ChildEQs  []int          `json:"child_eqs,omitempty"`
}

// PersistedNode is one template node; Children are node ids.
type PersistedNode struct {
	EQ       eqclass.PersistedEQ `json:"eq"`
	Slots    []PersistedSlot     `json:"slots,omitempty"`
	Children []int               `json:"children,omitempty"`
}

// PersistedTemplate is the whole annotated template tree.
type PersistedTemplate struct {
	DominanceThreshold float64         `json:"dominance_threshold"`
	Nodes              []PersistedNode `json:"nodes"`
	Roots              []int           `json:"roots"`
}

// PersistedBinding locates one field binding: a node-id descent path and
// the final slot.
type PersistedBinding struct {
	Path []int `json:"path,omitempty"`
	Slot int   `json:"slot"`
}

// PersistedFieldBindings carries the bindings of one tuple component,
// keyed by its type-pool id.
type PersistedFieldBindings struct {
	Type     int                `json:"type"`
	Bindings []PersistedBinding `json:"bindings"`
}

// PersistedSetBinding is the persisted form of one set binding.
type PersistedSetBinding struct {
	Type      int             `json:"type"`
	Slots     []int           `json:"slots,omitempty"`
	Child     int             `json:"child"`
	ElemMatch *PersistedMatch `json:"elem_match,omitempty"`
	ElemSlots []int           `json:"elem_slots,omitempty"`
}

// PersistedMatch binds a persisted tuple to template positions.
type PersistedMatch struct {
	Node   int                      `json:"node"`
	Tuple  int                      `json:"tuple"`
	Fields []PersistedFieldBindings `json:"fields,omitempty"`
	Sets   []PersistedSetBinding    `json:"sets,omitempty"`
	Start  int                      `json:"start"`
	End    int                      `json:"end"`
}

// InternDescs re-interns every descriptor of the template tree into tab,
// rewriting the descriptors' Val/Pth symbols in place. The walk order —
// roots pre-order, descriptors in slice order, Value before Path — is the
// same order Persist emits descriptors in, so a wrapper's symbol table is
// identical whether it was built at inference time or restored from a
// persisted symbol list.
func InternDescs(t *Template, tab *symtab.Table) {
	var walk func(n *Node)
	walk = func(n *Node) {
		for i := range n.EQ.Descs {
			d := &n.EQ.Descs[i]
			d.Val = tab.Intern(d.Value)
			d.Pth = tab.Intern(d.Path)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
}

// Persist flattens the template tree and its matches. Nodes are numbered
// in pre-order, roots in order — the only numbering Restore accepts.
// Types reachable from the matches are interned into pool; the caller
// persists pool.Records() alongside the returned structures.
func Persist(t *Template, matches []*Match, pool *sod.TypePool) (*PersistedTemplate, []*PersistedMatch) {
	pt := &PersistedTemplate{DominanceThreshold: t.DominanceThreshold}
	ids := make(map[*Node]int)
	var walk func(n *Node) int
	walk = func(n *Node) int {
		id := len(pt.Nodes)
		ids[n] = id
		pt.Nodes = append(pt.Nodes, PersistedNode{})
		rec := PersistedNode{EQ: n.EQ.Persist()}
		for _, s := range n.Slots {
			rec.Slots = append(rec.Slots, PersistedSlot{
				Types: s.Types, TextCount: s.TextCount, ChildEQs: s.ChildEQs,
			})
		}
		for _, c := range n.Children {
			rec.Children = append(rec.Children, walk(c))
		}
		pt.Nodes[id] = rec
		return id
	}
	for _, r := range t.Roots {
		pt.Roots = append(pt.Roots, walk(r))
	}
	out := make([]*PersistedMatch, 0, len(matches))
	for _, m := range matches {
		out = append(out, persistMatch(m, ids, pool))
	}
	return pt, out
}

// persistMatch flattens one match. Map entries are emitted in a
// deterministic order (field name, then rendered type) so identical
// wrappers persist to identical bytes.
func persistMatch(m *Match, ids map[*Node]int, pool *sod.TypePool) *PersistedMatch {
	pm := &PersistedMatch{
		Node:  ids[m.Node],
		Tuple: pool.Add(m.Tuple),
		Start: m.Start,
		End:   m.End,
	}
	for _, f := range sortedTypeKeys(mapKeysFields(m.Fields)) {
		pf := PersistedFieldBindings{Type: pool.Add(f)}
		for _, b := range m.Fields[f] {
			pb := PersistedBinding{Slot: b.Slot}
			for _, n := range b.Path {
				pb.Path = append(pb.Path, ids[n])
			}
			pf.Bindings = append(pf.Bindings, pb)
		}
		pm.Fields = append(pm.Fields, pf)
	}
	for _, f := range sortedTypeKeys(mapKeysSets(m.Sets)) {
		sb := m.Sets[f]
		ps := PersistedSetBinding{Type: pool.Add(f), Slots: sb.Slots, Child: -1, ElemSlots: sb.ElemSlots}
		if sb.Child != nil {
			ps.Child = ids[sb.Child]
		}
		if sb.ElemMatch != nil {
			ps.ElemMatch = persistMatch(sb.ElemMatch, ids, pool)
		}
		pm.Sets = append(pm.Sets, ps)
	}
	return pm
}

func mapKeysFields(m map[*sod.Type][]FieldBinding) []*sod.Type {
	out := make([]*sod.Type, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func mapKeysSets(m map[*sod.Type]*SetBinding) []*sod.Type {
	out := make([]*sod.Type, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// sortedTypeKeys orders type keys by name, falling back to the rendered
// DSL form — a total, pointer-free order, so the persisted byte stream
// does not depend on map iteration.
func sortedTypeKeys(keys []*sod.Type) []*sod.Type {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Name != keys[j].Name {
			return keys[i].Name < keys[j].Name
		}
		return keys[i].String() < keys[j].String()
	})
	return keys
}

// Restore rebuilds the template tree and matches from their persisted
// forms. types is the decoded type pool (sod.DecodeTypePool); tab is the
// restored symbol table the descriptors' symbol ids resolve against.
// The node graph must be the forest Persist writes, numbered in
// pre-order, or Restore fails: a node that is its own ancestor would
// send every later walk of the tree into endless recursion.
func Restore(pt *PersistedTemplate, pms []*PersistedMatch, types []*sod.Type, tab *symtab.Table) (*Template, []*Match, error) {
	if err := checkForest(pt); err != nil {
		return nil, nil, err
	}
	t := &Template{DominanceThreshold: pt.DominanceThreshold}
	nodes := make([]*Node, len(pt.Nodes))
	for i := range nodes {
		nodes[i] = &Node{}
	}
	nodeRef := func(id int) (*Node, error) {
		if id < 0 || id >= len(nodes) {
			return nil, fmt.Errorf("template: node reference %d out of range [0, %d)", id, len(nodes))
		}
		return nodes[id], nil
	}
	for i, rec := range pt.Nodes {
		n := nodes[i]
		n.EQ = rec.EQ.Restore(tab)
		for _, s := range rec.Slots {
			tm := s.Types
			if tm == nil {
				tm = make(map[string]int)
			}
			n.Slots = append(n.Slots, eqclass.SlotProfile{
				Types: tm, TextCount: s.TextCount, ChildEQs: s.ChildEQs,
			})
		}
		for _, cid := range rec.Children {
			n.Children = append(n.Children, nodes[cid])
		}
	}
	// Hierarchy links: the persisted tree shape is authoritative for both
	// the node tree and the EQ tree it mirrors.
	for _, n := range nodes {
		for _, c := range n.Children {
			c.EQ.Parent = n.EQ
			n.EQ.Children = append(n.EQ.Children, c.EQ)
		}
	}
	for _, rid := range pt.Roots {
		t.Roots = append(t.Roots, nodes[rid])
	}
	typeRef := func(id int) (*sod.Type, error) {
		if id < 0 || id >= len(types) {
			return nil, fmt.Errorf("template: type reference %d out of range [0, %d)", id, len(types))
		}
		return types[id], nil
	}
	var restoreMatch func(pm *PersistedMatch) (*Match, error)
	restoreMatch = func(pm *PersistedMatch) (*Match, error) {
		node, err := nodeRef(pm.Node)
		if err != nil {
			return nil, err
		}
		tuple, err := typeRef(pm.Tuple)
		if err != nil {
			return nil, err
		}
		m := &Match{
			Node:    node,
			Tuple:   tuple,
			Fields:  make(map[*sod.Type][]FieldBinding),
			Sets:    make(map[*sod.Type]*SetBinding),
			pending: make(map[*sod.Type][]FieldBinding),
			Start:   pm.Start,
			End:     pm.End,
		}
		for _, pf := range pm.Fields {
			f, err := typeRef(pf.Type)
			if err != nil {
				return nil, err
			}
			for _, pb := range pf.Bindings {
				b := FieldBinding{Slot: pb.Slot}
				for _, nid := range pb.Path {
					n, err := nodeRef(nid)
					if err != nil {
						return nil, err
					}
					b.Path = append(b.Path, n)
				}
				m.Fields[f] = append(m.Fields[f], b)
			}
		}
		for _, ps := range pm.Sets {
			f, err := typeRef(ps.Type)
			if err != nil {
				return nil, err
			}
			sb := &SetBinding{Slots: ps.Slots, ElemSlots: ps.ElemSlots}
			if ps.Child >= 0 {
				c, err := nodeRef(ps.Child)
				if err != nil {
					return nil, err
				}
				sb.Child = c
			}
			if ps.ElemMatch != nil {
				em, err := restoreMatch(ps.ElemMatch)
				if err != nil {
					return nil, err
				}
				sb.ElemMatch = em
			}
			m.Sets[f] = sb
		}
		return m, nil
	}
	var matches []*Match
	for _, pm := range pms {
		m, err := restoreMatch(pm)
		if err != nil {
			return nil, nil, err
		}
		matches = append(matches, m)
	}
	return t, matches, nil
}

// checkForest verifies that the persisted node graph is exactly the
// forest Persist writes: walking it from the roots, in order, visits
// every node once and in id order. A node listed twice, listed as its
// own ancestor, or never listed fails the walk.
func checkForest(pt *PersistedTemplate) error {
	next := 0
	for _, r := range pt.Roots {
		if err := walkPreorder(pt, r, &next); err != nil {
			return err
		}
	}
	if next != len(pt.Nodes) {
		return fmt.Errorf("template: %d of %d nodes reachable from the roots (not a tree)", next, len(pt.Nodes))
	}
	return nil
}

// walkPreorder checks that the subtree of node id is numbered in
// pre-order starting at *next, advancing *next past it.
func walkPreorder(pt *PersistedTemplate, id int, next *int) error {
	if id != *next || id >= len(pt.Nodes) {
		return fmt.Errorf("template: node reference %d where pre-order expects %d of %d (not a tree)", id, *next, len(pt.Nodes))
	}
	*next++
	for _, c := range pt.Nodes[id].Children {
		if err := walkPreorder(pt, c, next); err != nil {
			return err
		}
	}
	return nil
}
