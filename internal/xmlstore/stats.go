package xmlstore

import "sync"

// The statistics the optimizer consumes are already sitting in the index:
// every per-symbol rank stream's length is the exact occurrence count of
// that name, and the merged streams give the per-kind totals. Stats exposes
// them without any new scan over the document — the only derived figure is
// the per-symbol subtree mass (the containment-selectivity input), computed
// lazily in one pass over the streams and memoized.

// Stats is a per-tree statistics snapshot for the cost model: exact totals
// per node kind, the tree's depth, and per-symbol occurrence counts and
// subtree masses. All counts are exact (they restate stream lengths); the
// masses are the one derived quantity, used to estimate what fraction of a
// region lies beneath the nodes of a given tag.
type Stats struct {
	Nodes      int // every node, the document node included
	Elements   int
	Attributes int
	Texts      int
	MaxDepth   int // deepest level (document node is level 0)

	// ElemCount[s] / AttrCount[s] are the exact occurrence counts of symbol
	// s as an element tag / attribute name (stream lengths, restated).
	ElemCount []int
	AttrCount []int

	// ElemMass[s] is the total subtree size (descendants + self) of every
	// element with symbol s — the containment-selectivity numerator: the
	// share of the document lying at or below tag s is ElemMass[s]/Nodes.
	// Nested same-tag elements are counted once per occurrence, so the mass
	// can exceed Nodes for recursive tags; callers clamp the fraction.
	ElemMass []int64
}

// Stats returns the tree's statistics snapshot, built on first use and
// memoized. The build is one pass over the per-symbol streams (reading the
// Size and Level columns by rank), not a walk of the tree.
func (ix *Index) Stats() *Stats {
	ix.statsOnce.Do(func() {
		// A deferred member must be loaded before its columns exist. The
		// planner only reaches Stats after a successful Prepare (which
		// Ensured the member), so a failure here means a direct caller on a
		// corrupt member: memoize zero stats, the query error surfaces
		// through the prepare path.
		if err := ix.Ensure(); err != nil {
			ix.stats = &Stats{}
			return
		}
		cols := ix.Tree.Cols
		st := &Stats{
			Nodes:     len(cols.Kind),
			Elements:  len(ix.allElems),
			Texts:     len(ix.allText),
			ElemCount: make([]int, len(ix.elemBySym)),
			AttrCount: make([]int, len(ix.attrBySym)),
			ElemMass:  make([]int64, len(ix.elemBySym)),
		}
		for _, stream := range ix.attrBySym {
			st.Attributes += len(stream)
		}
		for s, stream := range ix.elemBySym {
			st.ElemCount[s] = len(stream)
			var mass int64
			for _, r := range stream {
				mass += int64(cols.Size[r]) + 1
			}
			st.ElemMass[s] = mass
		}
		for s, stream := range ix.attrBySym {
			st.AttrCount[s] = len(stream)
		}
		for _, lvl := range cols.Level {
			if int(lvl) > st.MaxDepth {
				st.MaxDepth = int(lvl)
			}
		}
		ix.stats = st
	})
	return ix.stats
}

// statsState is embedded in Index so the zero value of every construction
// site (BuildIndex, the fused ingester, the snapshot loader) lazily builds
// the snapshot on first use.
type statsState struct {
	statsOnce sync.Once
	stats     *Stats
}
