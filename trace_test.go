package xqtp

import (
	"strings"
	"testing"
)

// PrepareTraced records the paper's worked derivation: the normalized core
// (Q1a-n), the TPNF′ passes reaching Q1-tp, the compiled P1, and the rule
// applications reaching P5.
func TestPrepareTraced(t *testing.T) {
	q, tr, err := PrepareTraced(`$d//person[emailaddress]/name`)
	if err != nil {
		t.Fatal(err)
	}
	if q.TreePatterns() != 1 {
		t.Fatalf("traced query compiled differently: %s", q.Plan())
	}
	if !strings.Contains(tr.Core, "typeswitch") {
		t.Errorf("trace lost the normalized core: %s", tr.Core)
	}
	if len(tr.CoreSteps) < 3 {
		t.Errorf("expected several core rewriting steps, got %d", len(tr.CoreSteps))
	}
	if len(tr.PlanSteps) < 5 {
		t.Errorf("expected several algebraic steps, got %d", len(tr.PlanSteps))
	}
	last := tr.PlanSteps[len(tr.PlanSteps)-1].Repr
	if last != q.Plan() {
		t.Errorf("final trace step differs from the plan:\n  %s\n  %s", last, q.Plan())
	}
	s := tr.String()
	for _, want := range []string{"normalized core", "core rewriting", "algebraic optimization", "canonicalize", "TupleTreePattern"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered trace missing %q", want)
		}
	}
	// The traced query is fully usable.
	doc, err := LoadXMLString(personDoc)
	if err != nil {
		t.Fatal(err)
	}
	items, err := q.Run(doc, Staircase)
	if err != nil || len(items) != 3 {
		t.Errorf("traced query run: %d items, %v", len(items), err)
	}
	// Tracing only observes the pipeline: every phase compiles exactly as
	// Prepare compiles it.
	for _, pq := range physicalDiffCorpus() {
		plain, err := Prepare(pq.Query)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		traced, _, err := PrepareTraced(pq.Query)
		if err != nil {
			t.Fatalf("%s traced: %v", pq.Name, err)
		}
		if traced.Rewritten() != plain.Rewritten() || traced.UnoptimizedPlan() != plain.UnoptimizedPlan() || traced.Plan() != plain.Plan() {
			t.Errorf("%s: traced compilation differs from Prepare:\n  %s\n  %s", pq.Name, traced.Plan(), plain.Plan())
		}
	}
}
