package wrapper

import (
	"fmt"
	"strings"
)

// Variation is the outcome of one token-support value of the automatic
// parameter-variation loop (§IV).
type Variation struct {
	Support    int
	Conflicts  int
	Matches    int
	EQs        int
	Iterations int
	// Capped marks a run whose fixpoint loop stopped at the MaxIter
	// safety bound with roles still changing.
	Capped bool
	// Accepted marks the run the wrapper finally kept.
	Accepted bool
	// Reason narrates why the run was kept or rejected.
	Reason string
}

// Report is the EXPLAIN-style account of one wrapper inference: which
// stages ran, what they decided, and why the pipeline aborted or settled
// on its final parameters. It is always populated, including for aborted
// wrappers.
type Report struct {
	Pages int
	// Segmentation narrates the central-block choice.
	Segmentation bool
	BlockTag     string
	BlockPath    string
	// SampleSize is the number of pages kept by Algorithm 1.
	SampleSize int
	// TypeOrder is the selectivity-ordered processing order of Eq. 2.
	TypeOrder []string
	// AnnotatedTypes lists the entity types seen somewhere in the sample.
	AnnotatedTypes []string
	// Variations holds one entry per support value tried.
	Variations []Variation
	// ChosenSupport is the accepted support value (0 when aborted before
	// the loop).
	ChosenSupport int
	Conflicts     int
	Matches       int
	// Abort accounting.
	Aborted     bool
	AbortStage  string
	AbortReason string
}

// String renders the report as a human-readable EXPLAIN block.
func (r *Report) String() string {
	if r == nil {
		return "no inference report"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "wrapper inference over %d pages\n", r.Pages)
	if r.Segmentation {
		fmt.Fprintf(&sb, "  segment: central block <%s> at %s\n", r.BlockTag, r.BlockPath)
	} else {
		sb.WriteString("  segment: disabled (whole pages)\n")
	}
	if len(r.TypeOrder) > 0 {
		fmt.Fprintf(&sb, "  annotate: type order by selectivity: %s\n", strings.Join(r.TypeOrder, " > "))
	}
	if r.SampleSize > 0 {
		fmt.Fprintf(&sb, "  annotate: sample of %d pages selected (Algorithm 1)\n", r.SampleSize)
	}
	if len(r.AnnotatedTypes) > 0 {
		fmt.Fprintf(&sb, "  annotate: types witnessed in sample: %s\n", strings.Join(r.AnnotatedTypes, ", "))
	}
	for _, v := range r.Variations {
		verdict := "rejected"
		if v.Accepted {
			verdict = "accepted"
		}
		capped := ""
		if v.Capped {
			capped = " (capped: no fixpoint)"
		}
		fmt.Fprintf(&sb, "  variation support=%d: eqs=%d conflicts=%d matches=%d iterations=%d%s -> %s (%s)\n",
			v.Support, v.EQs, v.Conflicts, v.Matches, v.Iterations, capped, verdict, v.Reason)
	}
	if r.Aborted {
		fmt.Fprintf(&sb, "  ABORTED at %s: %s\n", r.AbortStage, r.AbortReason)
		return sb.String()
	}
	fmt.Fprintf(&sb, "  chosen: support=%d matches=%d conflicts=%d\n", r.ChosenSupport, r.Matches, r.Conflicts)
	return sb.String()
}

// abort records an abort on both the wrapper and its report.
func (w *Wrapper) abort(stage, reason string) {
	w.Aborted, w.AbortReason = true, reason
	if w.Report != nil {
		w.Report.Aborted = true
		w.Report.AbortStage = stage
		w.Report.AbortReason = reason
	}
}
