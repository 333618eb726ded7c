package xmlstore_test

// The generated-document differential check is an external test: the
// generators in internal/gen serialize through xmlstore, so the package's
// internal tests cannot import them.

import (
	"bytes"
	"testing"

	"xqtp/internal/gen"
	"xqtp/internal/xmlstore"
	"xqtp/internal/xmlstore/stdxml"
)

// TestFastVsStdGenerated runs the differential check over serialized
// MemBeR, XMark, and deep generated documents — the benchmark workloads.
func TestFastVsStdGenerated(t *testing.T) {
	docs := map[string][]byte{
		"member": xmlstore.AppendXML(nil, gen.MemberRoot(gen.MemberConfig{Seed: 7, Depth: 4, NumTags: 100, NumNodes: 20000})),
		"xmark":  xmlstore.AppendXML(nil, gen.XMarkRoot(gen.XMarkConfig{Seed: 7, People: 200})),
		"deep":   xmlstore.AppendXML(nil, gen.DeepRoot(7, 5000, 15, "t1")),
	}
	for name, data := range docs {
		t.Run(name, func(t *testing.T) {
			want, err := stdxml.ParseStd(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("ParseStd: %v", err)
			}
			ix, err := xmlstore.Ingest(data)
			if err != nil {
				t.Fatalf("Ingest: %v", err)
			}
			xmlstore.RequireTreesEqual(t, want, ix.Tree)
			xmlstore.RequireIndexesEqual(t, xmlstore.BuildIndex(ix.Tree), ix)
		})
	}
}
