package template

import "objectrunner/internal/eqclass"

// TupleSpans returns the token positions of every repetition of n's
// separator sequence that extraction locates in [from, to).
func TupleSpans(toks []*eqclass.Occurrence, n *Node, from, to int) [][]int {
	return tupleSpans(toks, n, from, to, NewScratch())
}

// TupleSpansRef is TupleSpans by the map-keyed reference matcher.
func TupleSpansRef(toks []*eqclass.Occurrence, n *Node, from, to int) [][]int {
	return findTuplesRef(toks, n.EQ.Descs, from, to)
}
