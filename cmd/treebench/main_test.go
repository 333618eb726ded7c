package main

import (
	"slices"
	"testing"
)

// A per-experiment flag given to an experiment that does not read it is
// rejected rather than silently ignored.
func TestCheckFlagsRejectsUnreadFlags(t *testing.T) {
	for _, tc := range []struct {
		exp  string
		flag string
		ok   bool
	}{
		{"validate", "json", false},
		{"fig4", "json", false},
		{"fig6", "json", false},
		{"sec53", "json", false},
		{"all", "json", false},
		{"table1", "cpus", false},
		{"ingest", "clients", false},
		{"snapshot", "algs", false},
		{"table1", "json", true},
		{"table1", "algs", true},
		{"fig6", "algs", true},
		{"all", "algs", true},
		{"serve", "json", true},
		{"serve", "cpus", true},
		{"serve", "clients", true},
		{"optimizer", "json", true},
	} {
		e, ok := experiments[tc.exp]
		if !ok {
			t.Fatalf("unknown experiment %q", tc.exp)
		}
		err := checkFlags(tc.exp, e, map[string]bool{tc.flag: true})
		if (err == nil) != tc.ok {
			t.Errorf("-exp %s -%s: err = %v, want accepted %v", tc.exp, tc.flag, err, tc.ok)
		}
	}
}

// Every experiment accepts the flags common to all of them, and lists only
// known per-experiment flags.
func TestCheckFlagsCommonFlags(t *testing.T) {
	for name, e := range experiments {
		if err := checkFlags(name, e, map[string]bool{"quick": true, "seed": true, "repeats": true, "exp": true}); err != nil {
			t.Errorf("-exp %s rejected a common flag: %v", name, err)
		}
		for _, f := range e.flags {
			if !slices.Contains(perExperimentFlags, f) {
				t.Errorf("-exp %s lists unknown flag %q", name, f)
			}
		}
	}
}

func TestParseCounts(t *testing.T) {
	got, err := parseCounts("cpus", "1, 2,4")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("parseCounts = %v, %v", got, err)
	}
	for _, bad := range []string{"0", "x", "1,,2", "-1"} {
		if _, err := parseCounts("cpus", bad); err == nil {
			t.Errorf("parseCounts(%q) accepted", bad)
		}
	}
}
