package xmlstore

import (
	"bytes"
	"strings"
	"testing"

	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore/stdxml"
)

// The differential contract of the ingest fast path: for every input that
// ParseStd (the encoding/xml reference) accepts, the scanner must accept it
// too and produce a bit-identical tree — same nodes in preorder, same
// symbol table, same columns — and Ingest's fused index must equal a
// BuildIndex run over the finished tree. The scanner may additionally
// accept inputs ParseStd rejects (it is non-validating); it must never
// reject what ParseStd accepts.

// requireTreesEqual compares two trees node for node and column for column.
func requireTreesEqual(t *testing.T, want, got *xdm.Tree) {
	t.Helper()
	if want.CountNodes() != got.CountNodes() {
		t.Fatalf("node count: fast %d, std %d", got.CountNodes(), want.CountNodes())
	}
	if want.Syms.Len() != got.Syms.Len() {
		t.Fatalf("symbol count: fast %d, std %d", got.Syms.Len(), want.Syms.Len())
	}
	for s := 0; s < want.Syms.Len(); s++ {
		if want.Syms.Name(xdm.Sym(s)) != got.Syms.Name(xdm.Sym(s)) {
			t.Fatalf("symbol %d: fast %q, std %q", s, got.Syms.Name(xdm.Sym(s)), want.Syms.Name(xdm.Sym(s)))
		}
	}
	for pre := range want.Nodes {
		w, g := want.Nodes[pre], got.Nodes[pre]
		if w.Kind != g.Kind || w.Name != g.Name || w.Text != g.Text || w.Sym != g.Sym {
			t.Fatalf("pre %d: fast {kind=%v name=%q text=%q sym=%d}, std {kind=%v name=%q text=%q sym=%d}",
				pre, g.Kind, g.Name, g.Text, g.Sym, w.Kind, w.Name, w.Text, w.Sym)
		}
		if w.Pre != g.Pre || w.Post != g.Post || w.Size != g.Size || w.Level != g.Level {
			t.Fatalf("pre %d: encoding fast (post=%d size=%d level=%d), std (post=%d size=%d level=%d)",
				pre, g.Post, g.Size, g.Level, w.Post, w.Size, w.Level)
		}
		wp, gp := -1, -1
		if w.Parent != nil {
			wp = w.Parent.Pre
		}
		if g.Parent != nil {
			gp = g.Parent.Pre
		}
		if wp != gp {
			t.Fatalf("pre %d: parent fast %d, std %d", pre, gp, wp)
		}
		if len(w.Children) != len(g.Children) || len(w.Attrs) != len(g.Attrs) {
			t.Fatalf("pre %d: fast %d children/%d attrs, std %d children/%d attrs",
				pre, len(g.Children), len(g.Attrs), len(w.Children), len(w.Attrs))
		}
		for i := range w.Children {
			if w.Children[i].Pre != g.Children[i].Pre {
				t.Fatalf("pre %d child %d: fast %d, std %d", pre, i, g.Children[i].Pre, w.Children[i].Pre)
			}
		}
		for i := range w.Attrs {
			if w.Attrs[i].Pre != g.Attrs[i].Pre {
				t.Fatalf("pre %d attr %d: fast %d, std %d", pre, i, g.Attrs[i].Pre, w.Attrs[i].Pre)
			}
		}
		if g.Doc != got {
			t.Fatalf("pre %d: Doc pointer not set", pre)
		}
	}
	wc, gc := want.Cols, got.Cols
	for pre := range want.Nodes {
		if wc.Post[pre] != gc.Post[pre] || wc.Size[pre] != gc.Size[pre] ||
			wc.Level[pre] != gc.Level[pre] || wc.Parent[pre] != gc.Parent[pre] ||
			wc.Kind[pre] != gc.Kind[pre] || wc.Sym[pre] != gc.Sym[pre] {
			t.Fatalf("pre %d: column mismatch fast(post=%d size=%d level=%d parent=%d kind=%d sym=%d) std(post=%d size=%d level=%d parent=%d kind=%d sym=%d)",
				pre, gc.Post[pre], gc.Size[pre], gc.Level[pre], gc.Parent[pre], gc.Kind[pre], gc.Sym[pre],
				wc.Post[pre], wc.Size[pre], wc.Level[pre], wc.Parent[pre], wc.Kind[pre], wc.Sym[pre])
		}
	}
}

// requireIndexesEqual compares a fused index against a reference, rank
// stream for rank stream.
func requireIndexesEqual(t *testing.T, want, got *Index) {
	t.Helper()
	requireStreams := func(label string, w, g []int32) {
		t.Helper()
		if len(w) != len(g) {
			t.Fatalf("%s: fast has %d ranks, reference %d", label, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("%s[%d]: fast %d, reference %d", label, i, g[i], w[i])
			}
		}
	}
	if len(want.elemBySym) != len(got.elemBySym) || len(want.attrBySym) != len(got.attrBySym) {
		t.Fatalf("per-symbol table sizes: fast %d/%d, reference %d/%d",
			len(got.elemBySym), len(got.attrBySym), len(want.elemBySym), len(want.attrBySym))
	}
	for s := range want.elemBySym {
		requireStreams("elem sym "+want.Tree.Syms.Name(xdm.Sym(s)), want.elemBySym[s], got.elemBySym[s])
	}
	for s := range want.attrBySym {
		requireStreams("attr sym "+want.Tree.Syms.Name(xdm.Sym(s)), want.attrBySym[s], got.attrBySym[s])
	}
	requireStreams("allElems", want.allElems, got.allElems)
	requireStreams("allText", want.allText, got.allText)
	requireStreams("allNodes", want.allNodes, got.allNodes)
	requireStreams("allAttrs", want.allAttrs, got.allAttrs)
}

// differentialCorpus exercises the scanner against ParseStd: every entry is
// accepted by encoding/xml.
var differentialCorpus = []string{
	`<a/>`,
	`<a></a>`,
	`<doc><person><name>Ann</name><emailaddress/></person></doc>`,
	`<p>one<b>two</b> three</p>`,
	"<a>\n  <b/>\n  <c>x</c>\n</a>",
	"<a>\u00a0</a>", // NBSP: Unicode whitespace-only text is dropped
	"<a>\ufeff</a>", // ZWNBSP is not TrimSpace whitespace: kept
	"<a>\t \n</a>",  // ASCII whitespace-only: dropped
	`<a><![CDATA[<not>&markup;]]></a>`,
	`<a>pre<![CDATA[mid]]>post</a>`, // CDATA splits the run into 3 text nodes
	`<a>  <![CDATA[]]>  </a>`,
	`<a><![CDATA[x]]><![CDATA[y]]></a>`,
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`,
	`<a>&#65;&#x41;&#x1F600;&#x00000041;</a>`,
	`<a b="x&amp;y&#10;z" c="&quot;q&apos;"/>`,
	"<a>line1\r\nline2\rline3</a>", // \r\n and \r normalize to \n
	"<a b=\"v1\r\nv2\rv3\"/>",
	"<a><![CDATA[x\r\ny\rz]]></a>", // normalization applies inside CDATA too
	`<a>x<!-- comment -->y</a>`,    // comment splits the run into 2 text nodes
	`<a><!-- only --></a>`,
	`<?xml version="1.0" encoding="UTF-8"?><a><?pi data?>t</a>`,
	`<!DOCTYPE doc [<!ELEMENT doc (#PCDATA)> <!-- c --> ]><doc>x</doc>`,
	`<a xmlns="u" xmlns:p="v" p:attr="w" regular="r"><p:b p:c="1"/></a>`,
	`<a xmlns:z="xmlns" z:b="1"/>`, // z resolves to the xmlns space: dropped
	`<a xmlns:z="xmlns"><b z:c="1"/><z:d/></a>`,
	`<a xmlns:z="xmlns"><b xmlns:z="other" z:c="1"/><c z:d="1"/></a>`, // shadowing
	`<a z:b="1" xmlns:z="xmlns"/>`,                                    // declaration after use, same tag
	`<a p:xmlns="v"/>`,                                                // not a declaration: kept (local name xmlns)
	`<a xmlns:="v"/>`,                                                 // trailing colon does not split: kept
	`<a b="1" b="2"/>`,                                                // duplicate attributes are both kept
	"<a  b = '1'\tc\n=\n\"2\" />",
	`<a></a >`,
	`<root><mid><deep attr="x">t1</deep></mid>tail</root>`,
	`<a><b/><b></b><b>x</b></a>`,
	`<a>t1<b>t2</b>t3<b/>t4</a>`,
}

// TestFastVsStdCorpus checks the scanner node for node against ParseStd on
// the handwritten corpus, and the fused index rank for rank against
// BuildIndex.
func TestFastVsStdCorpus(t *testing.T) {
	for _, doc := range differentialCorpus {
		t.Run("", func(t *testing.T) {
			want, err := stdxml.ParseStd(strings.NewReader(doc))
			if err != nil {
				t.Fatalf("ParseStd rejected corpus entry %q: %v", doc, err)
			}
			got, err := ParseString(doc)
			if err != nil {
				t.Fatalf("fast parser rejected %q accepted by ParseStd: %v", doc, err)
			}
			requireTreesEqual(t, want, got)
			ix, err := IngestString(doc)
			if err != nil {
				t.Fatalf("Ingest rejected %q: %v", doc, err)
			}
			requireTreesEqual(t, want, ix.Tree)
			requireIndexesEqual(t, BuildIndex(ix.Tree), ix)
		})
	}
}

// TestMalformedRejected checks that both parsers reject malformed input
// with an xmlstore:-prefixed error.
func TestMalformedRejected(t *testing.T) {
	cases := []struct {
		name, doc string
	}{
		{"empty", ""},
		{"whitespace only", "  \n\t "},
		{"text only", "hello"},
		{"unterminated root", "<a>"},
		{"unterminated nested", "<a><b></b>"},
		{"mismatched close", "<a><b></a>"},
		{"stray end", "</x>"},
		{"stray end after root", "<a/></x>"},
		{"multiple roots", "<a/><b/>"},
		{"unquoted attr", "<a b=c/>"},
		{"attr without value", "<a b/>"},
		{"bad self close", "<a/ >"},
		{"junk in end tag", "<a></a junk>"},
		{"unknown entity", "<a>&unknown;</a>"},
		{"empty charref", "<a>&#;</a>"},
		{"bare ampersand run", "<a>x & y</a>"},
		{"unterminated comment", "<a><!-- never"},
		{"unterminated cdata", "<a><![CDATA[x"},
		{"unterminated pi", "<a><?pi x"},
		{"unterminated tag", "<a b=\"1\""},
		{"lone angle", "<"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := stdxml.ParseStd(strings.NewReader(tc.doc)); err == nil {
				t.Fatalf("ParseStd accepted %q", tc.doc)
			} else if !strings.HasPrefix(err.Error(), "xmlstore:") {
				t.Fatalf("ParseStd error not xmlstore-prefixed: %v", err)
			}
			if _, err := ParseString(tc.doc); err == nil {
				t.Fatalf("fast parser accepted %q", tc.doc)
			} else if !strings.HasPrefix(err.Error(), "xmlstore:") {
				t.Fatalf("fast parser error not xmlstore-prefixed: %v", err)
			}
		})
	}
}

// TestXmlnsDropSymmetry pins the namespace-declaration handling both
// parsers share: declarations are dropped, lookalikes are kept.
func TestXmlnsDropSymmetry(t *testing.T) {
	cases := []struct {
		doc       string
		wantAttrs []string // names of the root's surviving attributes, in order
	}{
		{`<a xmlns="u"/>`, nil},
		{`<a xmlns:p="u"/>`, nil},
		{`<a xmlns="u" keep="1"/>`, []string{"keep"}},
		{`<a p:xmlns="v"/>`, []string{"xmlns"}},
		{`<a xmlns:="v"/>`, []string{"xmlns:"}},
		{`<a Xmlns="v"/>`, []string{"Xmlns"}},
		{`<a xmlns:z="xmlns" z:b="1" keep="2"/>`, []string{"keep"}},
		{`<a z:b="1" xmlns:z="xmlns"/>`, nil},
		{`<a xmlns:z="other" z:b="1"/>`, []string{"b"}},
	}
	for _, tc := range cases {
		for _, parse := range []struct {
			label string
			fn    func(string) (*xdm.Tree, error)
		}{{"std", stdxml.ParseStdString}, {"fast", ParseString}} {
			tr, err := parse.fn(tc.doc)
			if err != nil {
				t.Fatalf("%s rejected %q: %v", parse.label, tc.doc, err)
			}
			root := tr.Root.Children[0]
			var names []string
			for _, a := range root.Attrs {
				names = append(names, a.Name)
			}
			if len(names) != len(tc.wantAttrs) {
				t.Fatalf("%s on %q: attrs %v, want %v", parse.label, tc.doc, names, tc.wantAttrs)
			}
			for i := range names {
				if names[i] != tc.wantAttrs[i] {
					t.Fatalf("%s on %q: attrs %v, want %v", parse.label, tc.doc, names, tc.wantAttrs)
				}
			}
		}
	}
}

// FuzzScanVsStd fuzzes the differential contract: whenever ParseStd accepts
// an input, the fast scanner must accept it and produce an identical tree
// and index.
func FuzzScanVsStd(f *testing.F) {
	for _, doc := range differentialCorpus {
		f.Add([]byte(doc))
	}
	f.Add([]byte("<a>&#xD;&#13;</a>")) // charrefs escape newline normalization
	f.Add([]byte("<a><b><c/></b><b/></a>"))
	f.Add([]byte("<!DOCTYPE a SYSTEM \"x\"><a/>"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, stdErr := stdxml.ParseStd(bytes.NewReader(data))
		if stdErr != nil {
			// ParseStd rejects; the non-validating scanner may go either way.
			return
		}
		ix, err := Ingest(bytes.Clone(data))
		if err != nil {
			t.Fatalf("fast parser rejected input accepted by ParseStd: %v\ninput: %q", err, data)
		}
		requireTreesEqual(t, want, ix.Tree)
		requireIndexesEqual(t, BuildIndex(ix.Tree), ix)
	})
}
