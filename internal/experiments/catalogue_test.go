package experiments

import (
	"context"
	"errors"
	"slices"
	"testing"
)

// TestCatalogue pins the catalogue's names and order (the -json feed and
// CI's bench compare key on them) and that every entry honours an
// already-cancelled context instead of running to completion.
func TestCatalogue(t *testing.T) {
	want := []string{"fig5r", "fig5l", "fig6", "fig10", "fig12a", "fig12b", "fig12b-fleet",
		"fig12c", "sec5c", "sec5d", "abl-delta", "abl-policy", "abl-return", "scenarios"}
	var got []string
	for _, e := range Catalogue() {
		got = append(got, e.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("catalogue names = %v, want %v", got, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range Catalogue() {
		if _, err := e.Run(ctx, 1, true, 1); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: run under a cancelled context returned %v, want context.Canceled", e.Name, err)
		}
	}
}
