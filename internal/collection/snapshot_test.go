package collection

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"xqtp/internal/xdm"
)

func TestCorpusSnapshotRoundTrip(t *testing.T) {
	c, err := Ingest(genSources(20), 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("loaded %d members, want %d", c2.Len(), c.Len())
	}
	prevID := 0
	for i := 0; i < c.Len(); i++ {
		a, b := c.Doc(i), c2.Doc(i)
		if a.URI != b.URI {
			t.Fatalf("member %d URI %q, want %q", i, b.URI, a.URI)
		}
		ta, tb := a.Tree(), b.Tree()
		// Force the loaded member's lazy pointer model so the node-for-node
		// comparison below sees it.
		tb.RootNode()
		if len(ta.Nodes) != len(tb.Nodes) {
			t.Fatalf("member %d: %d nodes, want %d", i, len(tb.Nodes), len(ta.Nodes))
		}
		for j := range ta.Nodes {
			x, y := ta.Nodes[j], tb.Nodes[j]
			if x.Kind != y.Kind || x.Name != y.Name || x.Text != y.Text ||
				x.Pre != y.Pre || x.Post != y.Post || x.Size != y.Size || x.Level != y.Level {
				t.Fatalf("member %d node %d differs: %+v vs %+v", i, j, x, y)
			}
		}
		// Corpus-order invariant re-established on load.
		if tb.ID <= prevID {
			t.Fatalf("member %d tree ID %d not ascending after %d", i, tb.ID, prevID)
		}
		prevID = tb.ID
		// Members resolve through the loaded corpus maps and index store.
		if d, ok := c2.ByURI(a.URI); !ok || d != b {
			t.Fatalf("member %d not resolvable by URI %q", i, a.URI)
		}
		if d, ok := c2.ByTree(tb); !ok || d != b {
			t.Fatalf("member %d not resolvable by tree", i)
		}
		if c2.Index(tb) != b.Index {
			t.Fatalf("member %d index not held by the corpus", i)
		}
	}
	// Name table survives: same names, same per-member resolution.
	if !reflect.DeepEqual(c2.Names().Names(), c.Names().Names()) {
		t.Fatalf("name table names differ: %v vs %v", c2.Names().Names(), c.Names().Names())
	}
	for _, name := range c.Names().Names() {
		for i := 0; i < c.Len(); i++ {
			if got, want := c2.Names().Sym(name, i), c.Names().Sym(name, i); got != want {
				t.Fatalf("name %q member %d: sym %d, want %d", name, i, got, want)
			}
		}
	}
	// fn:collection() over the loaded corpus yields the loaded roots in order.
	roots, err := c2.ResolveCollection("")
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != c2.Len() {
		t.Fatalf("collection() returned %d roots, want %d", len(roots), c2.Len())
	}
}

// Extend must produce the same name table the from-scratch build does — the
// incremental path (copy + walk only the added members) is an optimization,
// not a semantic change.
func TestExtendNameTableMatchesRebuild(t *testing.T) {
	c, err := Ingest(genSources(6), 2)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		extra := []Source{
			{URI: fmt.Sprintf("mem://nt-%d-a.xml", round),
				Data: []byte(fmt.Sprintf(`<grown round="%d"><delta/></grown>`, round))},
			{URI: fmt.Sprintf("mem://nt-%d-b.xml", round),
				Data: []byte("<doc><alpha/><fresh>x</fresh></doc>")},
		}
		next, err := c.Extend(extra, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := buildNameTable(next.Docs())
		got := next.Names()
		if !reflect.DeepEqual(got.Names(), want.Names()) {
			t.Fatalf("round %d: names %v, want %v", round, got.Names(), want.Names())
		}
		for _, name := range want.Names() {
			if !reflect.DeepEqual(got.byName[name], want.byName[name]) {
				t.Fatalf("round %d: column for %q is %v, want %v",
					round, name, got.byName[name], want.byName[name])
			}
		}
		if got.ndocs != next.Len() {
			t.Fatalf("round %d: table covers %d docs, want %d", round, got.ndocs, next.Len())
		}
		c = next
	}
}

// Snapshots of an extended corpus carry the incremental name table;
// loading one must agree with the original.
func TestExtendThenSnapshot(t *testing.T) {
	c, err := Ingest(genSources(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err = c.Extend([]Source{
		{URI: "mem://late.xml", Data: []byte("<late><omega/></late>")},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c2.Names().Sym("omega", 5), c.Names().Sym("omega", 5); got != want {
		t.Fatalf("omega sym in late member: %d, want %d", got, want)
	}
	if c2.Names().Has("omega", 0) {
		t.Fatal("omega leaked into member 0")
	}
	if got := c2.Names().DocsWith("doc"); got != 5 {
		t.Fatalf("DocsWith(doc) = %d, want 5", got)
	}
}

func TestOpenSnapshotRejectsGarbage(t *testing.T) {
	if _, err := OpenSnapshot([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage should not load")
	}
	var buf bytes.Buffer
	c, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 0 {
		t.Fatalf("empty corpus loaded with %d members", c2.Len())
	}
	if _, err := c2.ResolveDoc("x"); err == nil {
		t.Fatal("resolving a doc in an empty corpus should fail")
	}
}

// TestOpenSnapshotFile checks the file-mapped deferred open end to end:
// equality with the in-memory load, fan-out evaluation over deferred
// members, and the Close contract.
func TestOpenSnapshotFile(t *testing.T) {
	c, err := Ingest(genSources(12), 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.xqts")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("loaded %d members, want %d", c2.Len(), c.Len())
	}
	// Nothing is loaded at open: the whole point of the mapped path.
	for i := 0; i < c2.Len(); i++ {
		if c2.Doc(i).Index.Loaded() {
			t.Fatalf("member %d loaded at open", i)
		}
	}
	// NumNodes answers from the directories without forcing loads.
	if got, want := c2.NumNodes(), c.NumNodes(); got != want {
		t.Fatalf("NumNodes = %d, want %d", got, want)
	}
	for i := 0; i < c2.Len(); i++ {
		if c2.Doc(i).Index.Loaded() {
			t.Fatalf("member %d loaded by NumNodes", i)
		}
	}
	// Evaluation touches every member; the results must match the ingested
	// corpus member for member.
	seq, err := c2.RunAll(4, nil, func(d *Doc) (xdm.Sequence, error) {
		if err := d.Ensure(); err != nil {
			return nil, err
		}
		return xdm.Sequence{d.Root()}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != c.Len() {
		t.Fatalf("fan-out returned %d roots, want %d", len(seq), c.Len())
	}
	for i := 0; i < c.Len(); i++ {
		a, b := c.Doc(i), c2.Doc(i)
		if a.URI != b.URI {
			t.Fatalf("member %d URI %q, want %q", i, b.URI, a.URI)
		}
		ta, tb := a.Tree(), b.Tree()
		tb.RootNode()
		if len(ta.Nodes) != len(tb.Nodes) {
			t.Fatalf("member %d: %d nodes, want %d", i, len(tb.Nodes), len(ta.Nodes))
		}
	}

	// Close: typed error on reuse, on double close, and on late loads.
	if c2.Closed() {
		t.Fatal("Closed before Close")
	}
	if err := c2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !c2.Closed() {
		t.Fatal("not Closed after Close")
	}
	if err := c2.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if _, err := c2.ResolveDoc(c.Doc(0).URI); !errors.Is(err, ErrClosed) {
		t.Fatalf("ResolveDoc after Close = %v, want ErrClosed", err)
	}
	if _, err := c2.ResolveCollection(""); !errors.Is(err, ErrClosed) {
		t.Fatalf("ResolveCollection after Close = %v, want ErrClosed", err)
	}
	err = c2.RunAllCtx(nil, 2, nil, func(d *Doc) (xdm.Sequence, error) { return nil, nil },
		func(seq xdm.Sequence) error { return nil })
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("RunAllCtx after Close = %v, want ErrClosed", err)
	}
	if err := c2.WriteSnapshot(&bytes.Buffer{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteSnapshot after Close = %v, want ErrClosed", err)
	}
}

// A member never loaded before Close must surface ErrClosed from its load,
// not fault on the unmapped pages.
func TestOpenSnapshotFileCloseBeforeLoad(t *testing.T) {
	c, err := Ingest(genSources(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.xqts")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Doc(0).Ensure(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ensure after Close = %v, want ErrClosed", err)
	}
	c2.Doc(0).Root() // poisoned placeholder, must not fault
}

// A snapshot file that shrank after being written must be rejected at open:
// the offset table claims more bytes than the file holds.
func TestOpenSnapshotFileTruncated(t *testing.T) {
	c, err := Ingest(genSources(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	for _, cut := range []int{1, 17, len(good) / 2, len(good) - 1} {
		path := filepath.Join(dir, fmt.Sprintf("trunc-%d.xqts", cut))
		if err := os.WriteFile(path, good[:len(good)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSnapshotFile(path); err == nil {
			t.Errorf("open of snapshot truncated by %d bytes should fail", cut)
		}
	}
}
