package gen

import (
	"fmt"

	"xqtp/internal/collection"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// XML streams a generated document skeleton through the serializer into an
// IngestWriter and returns the accumulated bytes — the generator-to-scanner
// path with no intermediate full-document string. sizeHint presizes the
// buffer (0: grow as needed).
func XML(root *xdm.Node, sizeHint int) []byte {
	w := xmlstore.NewIngestWriter(sizeHint)
	if err := xmlstore.Serialize(w, root); err != nil {
		panic(err) // IngestWriter.Write cannot fail
	}
	return w.Bytes()
}

// MixedCorpus generates a corpus of n members: MemBeR-style (300 nodes over
// 20 tags) and 8-person XMark-like documents interleaved, a few KB each,
// serialized through XML. Root-bound queries provably miss about half the
// members, which is what the collection, optimizer and snapshot benchmarks
// measure.
func MixedCorpus(n int, seed int64) []collection.Source {
	out := make([]collection.Source, n)
	for i := 0; i < n; i++ {
		var root *xdm.Node
		if i%2 == 0 {
			root = MemberRoot(MemberConfig{
				Seed: seed + int64(i), Depth: 4, NumTags: 20, NumNodes: 300,
			})
		} else {
			root = XMarkRoot(XMarkConfig{Seed: seed + int64(i), People: 8})
		}
		out[i] = collection.Source{
			URI:  fmt.Sprintf("mem://corpus-%05d.xml", i),
			Data: XML(root, 0),
		}
	}
	return out
}
