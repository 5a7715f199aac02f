package check

import (
	"strings"
	"testing"
)

// TestOpacityOnHandBuiltHistories pins the oracle's verdicts on small
// histories over locations a = 0, b = 1 and c = 2, where w writes a and b
// together at version 1.
func TestOpacityOnHandBuiltHistories(t *testing.T) {
	w := Attempt{Writes: []Access{{0, 1}, {1, 1}}, Committed: true}
	for _, tc := range []struct {
		name     string
		attempts []Attempt
		want     string // a substring of the error; empty for a pass
	}{
		{"consistent read", []Attempt{w, {Reads: []Access{{0, 1}, {1, 1}}, Committed: true}}, ""},
		{"initial read", []Attempt{w, {Reads: []Access{{1, 0}, {0, 0}}, Committed: true}}, ""},
		{"aborted partial attempt", []Attempt{w, {Reads: []Access{{1, 1}}}}, ""},
		{"torn committed pair", []Attempt{w, {Reads: []Access{{0, 1}, {1, 0}}, Committed: true}}, "cycle"},
		{"torn aborted attempt", []Attempt{w, {Reads: []Access{{1, 0}, {0, 1}}}}, "cycle"},
		{"never written", []Attempt{w, {Reads: []Access{{0, 2}}}}, "which no commit wrote"},
		{"same version twice", []Attempt{w, w}, "two commits wrote"},
		{"write skew cycle", []Attempt{
			{Reads: []Access{{0, 0}}, Writes: []Access{{1, 1}}, Committed: true},
			{Reads: []Access{{1, 0}}, Writes: []Access{{0, 1}}, Committed: true},
		}, "cycle"},
		{"blind overwrite implies its predecessor", []Attempt{
			w, {Writes: []Access{{0, 2}}, Committed: true}, {Reads: []Access{{0, 2}, {1, 0}}},
		}, "cycle"},
		{"torn through a copy chain", []Attempt{
			w, {Reads: []Access{{0, 1}}, Writes: []Access{{2, 1}}, Committed: true},
			{Reads: []Access{{2, 1}, {1, 0}}},
		}, "cycle"},
		{"aborted attempts that disagree on the commit order", []Attempt{
			{Writes: []Access{{0, 1}}, Committed: true}, {Writes: []Access{{1, 1}}, Committed: true},
			{Reads: []Access{{0, 1}, {1, 0}}}, {Reads: []Access{{1, 1}, {0, 0}}},
		}, "cycle"},
		{"read before an overwrite", []Attempt{
			{Reads: []Access{{0, 0}}, Writes: []Access{{2, 1}}, Committed: true}, w,
			{Reads: []Access{{2, 1}, {0, 0}}, Committed: true},
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := Opacity(tc.attempts)
			if tc.want == "" && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
