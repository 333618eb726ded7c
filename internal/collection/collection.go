// Package collection is the corpus layer: a sharded store of many XML
// documents behind one query surface. A Corpus ingests documents
// concurrently (bounded worker pool over the fused xmlstore scanner, each
// member's index and symbol table built during its parse), assigns the
// members a contiguous block of tree IDs in corpus order so cross-document
// ordering is deterministic regardless of ingest scheduling, interns every
// member tag into a corpus-level name table (query symbol → per-document
// symbol id), and fans query evaluation out across the members on a worker
// pool, merging per-document results back in stable corpus order through a
// bounded channel.
//
// A Corpus is immutable after construction and safe for concurrent use;
// Extend builds a new snapshot sharing the existing members, so readers of
// the old corpus are never disturbed by growth.
package collection

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// ErrClosed reports use of a corpus after Close. It is the same value as
// xmlstore.ErrSnapshotClosed, so errors.Is matches whichever layer detected
// the closed store.
var ErrClosed = xmlstore.ErrSnapshotClosed

// Doc is one corpus member: a parsed document with its index, addressed by
// URI.
type Doc struct {
	URI   string
	Index *xmlstore.Index
}

// Tree returns the member's document tree.
func (d *Doc) Tree() *xdm.Tree { return d.Index.Tree }

// Root returns the member's document node, materializing a snapshot-loaded
// member's pointer data model on first use.
func (d *Doc) Root() *xdm.Node { return d.Index.Tree.RootNode() }

// Ensure forces a deferred snapshot member's parse + validation (no-op for
// ingested members and already-loaded ones). The error-returning twin of
// Root: fan-out evaluation calls it before touching the member so a corrupt
// member becomes a per-query error.
func (d *Doc) Ensure() error { return d.Index.Ensure() }

// Corpus is an immutable snapshot of a document collection. Member order is
// the corpus order: ascending tree IDs, which makes it coincide with
// cross-document document order (xdm.CompareOrder ranks documents by ID) —
// the invariant behind every determinism guarantee of the fan-out executor
// and of fn:collection().
type Corpus struct {
	docs   []*Doc
	byURI  map[string]int
	byTree map[*xdm.Tree]int
	names  *NameTable
	// epoch counts the Extend steps behind this snapshot: a freshly ingested
	// or snapshot-loaded corpus is epoch 0, and each Extend returns a corpus
	// one epoch later.
	epoch uint64
	// roots is the memoized fn:collection() result: every member's document
	// node in corpus order. Built on first ResolveCollection rather than at
	// assembly, because gathering the document nodes forces materialization
	// of every member — which would make opening a corpus snapshot pay for
	// all the Node structs the open was designed to defer.
	roots     xdm.Sequence
	rootsErr  error
	rootsOnce sync.Once

	// mapping is the file mapping behind a corpus opened with
	// OpenSnapshotFile; nil for ingested and in-memory-snapshot corpora.
	// Close releases it.
	mapping *xmlstore.Mapping
	closed  atomic.Bool
}

// Close poisons the corpus and releases its file mapping (if any). After
// Close every run/resolve entry point returns ErrClosed; a second Close
// returns ErrClosed too. Closing while queries are in flight is a caller
// bug (the os.File contract): the entry-point checks catch sequential
// use-after-close, not races.
func (c *Corpus) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	if c.mapping != nil {
		return c.mapping.Close()
	}
	return nil
}

// Closed reports whether Close has been called.
func (c *Corpus) Closed() bool { return c.closed.Load() }

// Mapping returns the file mapping behind the corpus (nil unless opened
// with OpenSnapshotFile).
func (c *Corpus) Mapping() *xmlstore.Mapping { return c.mapping }

// closedErr is the entry-point check used by every run/resolve path.
func (c *Corpus) closedErr() error {
	if c.closed.Load() {
		return ErrClosed
	}
	return nil
}

// New builds a corpus from already-ingested members. Members are sorted by
// tree ID (load order) to establish the corpus-order invariant; duplicate
// URIs are rejected. The given slice is not retained.
func New(docs []*Doc) (*Corpus, error) {
	members := make([]*Doc, len(docs))
	copy(members, docs)
	sort.SliceStable(members, func(i, j int) bool {
		return members[i].Tree().ID < members[j].Tree().ID
	})
	return assemble(members)
}

// assemble builds the corpus structures over a member slice already in
// ascending tree-ID order, deriving the name table from scratch.
func assemble(members []*Doc) (*Corpus, error) {
	return assembleWith(members, nil)
}

// assembleWith is assemble with an already-built name table (Extend grows
// the previous corpus's table incrementally; the snapshot loader decodes a
// stored one). names nil falls back to a full build.
func assembleWith(members []*Doc, names *NameTable) (*Corpus, error) {
	c := &Corpus{
		docs:   members,
		byURI:  make(map[string]int, len(members)),
		byTree: make(map[*xdm.Tree]int, len(members)),
	}
	for i, d := range members {
		if d.Index == nil {
			return nil, fmt.Errorf("collection: member %q has no index", d.URI)
		}
		if prev, ok := c.byURI[d.URI]; ok {
			return nil, fmt.Errorf("collection: duplicate URI %q (members %d and %d)", d.URI, prev, i)
		}
		c.byURI[d.URI] = i
		c.byTree[d.Tree()] = i
	}
	if names == nil {
		names = buildNameTable(members)
	}
	c.names = names
	return c, nil
}

// Len returns the number of member documents.
func (c *Corpus) Len() int { return len(c.docs) }

// Doc returns member i in corpus order.
func (c *Corpus) Doc(i int) *Doc { return c.docs[i] }

// Docs returns the members in corpus order. The slice is shared: callers
// must not modify it.
func (c *Corpus) Docs() []*Doc { return c.docs }

// ByURI resolves a member by URI.
func (c *Corpus) ByURI(uri string) (*Doc, bool) {
	i, ok := c.byURI[uri]
	if !ok {
		return nil, false
	}
	return c.docs[i], true
}

// ByTree resolves the member holding the given tree (attributing a result
// node back to its document).
func (c *Corpus) ByTree(t *xdm.Tree) (*Doc, bool) {
	i, ok := c.byTree[t]
	if !ok {
		return nil, false
	}
	return c.docs[i], true
}

// Index returns the index of the member holding t, or nil when t is not a
// member tree: the corpus is the index store of every engine run against
// it, so no member index is ever rebuilt.
func (c *Corpus) Index(t *xdm.Tree) *xmlstore.Index {
	if i, ok := c.byTree[t]; ok {
		return c.docs[i].Index
	}
	return nil
}

// Names returns the corpus-level name table.
func (c *Corpus) Names() *NameTable { return c.names }

// Epoch returns the corpus's extension epoch: 0 for a freshly built or
// loaded corpus, the parent's epoch plus one for an Extend result.
func (c *Corpus) Epoch() uint64 { return c.epoch }

// ResolveDoc implements xdm.DocResolver: fn:doc($uri).
func (c *Corpus) ResolveDoc(uri string) (*xdm.Node, error) {
	if err := c.closedErr(); err != nil {
		return nil, err
	}
	d, ok := c.ByURI(uri)
	if !ok {
		return nil, fmt.Errorf("doc(%q): no such document in the collection", uri)
	}
	if err := d.Ensure(); err != nil {
		return nil, err
	}
	return d.Root(), nil
}

// ResolveCollection implements xdm.DocResolver: fn:collection(). The empty
// name is the default collection — every member document node, in corpus
// order (already document order by the tree-ID invariant).
func (c *Corpus) ResolveCollection(name string) (xdm.Sequence, error) {
	if name != "" {
		return nil, fmt.Errorf("collection(%q): no such collection (only the default collection is defined)", name)
	}
	if err := c.closedErr(); err != nil {
		return nil, err
	}
	c.rootsOnce.Do(func() {
		roots := make(xdm.Sequence, len(c.docs))
		for i, d := range c.docs {
			if err := d.Ensure(); err != nil {
				c.rootsErr = err
				return
			}
			roots[i] = d.Root()
		}
		c.roots = roots
	})
	if c.rootsErr != nil {
		return nil, c.rootsErr
	}
	return c.roots, nil
}

// SizeBytes returns the total serialized size of the corpus members.
func (c *Corpus) SizeBytes() int {
	total := 0
	for _, d := range c.docs {
		total += len(xmlstore.AppendXML(nil, d.Root()))
	}
	return total
}

// NumNodes returns the total node count across members. Deferred snapshot
// members answer from their section directory, so this never forces loads.
func (c *Corpus) NumNodes() int {
	total := 0
	for _, d := range c.docs {
		total += d.Index.NumNodes()
	}
	return total
}
