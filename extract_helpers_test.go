package objectrunner

import (
	"context"
	"testing"
)

// extractAll concatenates the per-page output of
// ExtractStreamBatchContext across pages.
func extractAll(tb testing.TB, w *Wrapper, pages []string) []*Object {
	tb.Helper()
	batches, err := w.ExtractStreamBatchContext(context.Background(), pages)
	if err != nil {
		tb.Fatalf("extract batch: %v", err)
	}
	var out []*Object
	for _, objs := range batches {
		out = append(out, objs...)
	}
	return out
}
