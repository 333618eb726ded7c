package bench

import (
	"strings"
	"testing"
)

// The experiment harness runs end to end at reduced scale, and the §5.3
// shape holds: NLJoin is much faster than both set-at-a-time algorithms on
// the selective positional chain.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var b strings.Builder
	if err := All(&b, QuickOptions()); err != nil {
		t.Fatalf("All: %v\noutput so far:\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"variants compile to the identical plan",
		"Figure 4", "Table 1", "Figure 6", "Section 5.3",
		"QE1", "QE6", "NLJoin", "TwigJoin", "SCJoin",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("experiment output missing %q", want)
		}
	}
}

func TestValidationPasses(t *testing.T) {
	var b strings.Builder
	if err := Validation(&b); err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
}
