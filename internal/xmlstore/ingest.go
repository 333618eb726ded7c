package xmlstore

// The ingest fast path: a non-validating, zero-copy streaming scan over the
// raw document bytes fused with single-pass columnar tree construction.
// One walk over the input interns tag and attribute names, allocates nodes
// from the xdm.TreeBuilder's slab arenas, emits the post/size/level/parent/
// kind/sym columns, and appends every element and attribute rank to its
// per-symbol index stream — the separate xdm.Finalize and BuildIndex
// re-traversals of the encoding/xml path disappear entirely.
//
// The scanner accepts a superset of what stdxml.ParseStd accepts (no UTF-8
// validation, no name-character checks, '<' allowed in attribute values,
// ']]>' allowed in text) but produces a bit-identical tree and index for
// every input ParseStd accepts; the differential and fuzz suites enforce
// that contract. Structural errors — unbalanced or mismatched tags, stray
// end elements, multiple or missing roots — are rejected with xmlstore:-
// prefixed errors either way.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"xqtp/internal/xdm"
)

// Ingest scans an XML document held in data and returns its fused tree and
// index. Ingest takes ownership of data: the tree's text and attribute
// values alias the buffer, so the caller must not modify it afterwards.
func Ingest(data []byte) (*Index, error) {
	_, ix, err := ingest(data, true)
	return ix, err
}

// IngestReader reads r to the end and ingests the document.
func IngestReader(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmlstore: %w", err)
	}
	return Ingest(data)
}

// Parse reads an XML document from r and returns its XDM tree via the fast
// scanner. Whitespace-only text between elements is dropped (data-oriented
// parsing); mixed content text is preserved. stdxml.ParseStd is the
// encoding/xml reference implementation of the same contract.
func Parse(r io.Reader) (*xdm.Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmlstore: %w", err)
	}
	return ParseBytes(data)
}

// ParseBytes parses an XML document held in a byte slice via the fast
// scanner. It takes ownership of data (see Ingest).
func ParseBytes(data []byte) (*xdm.Tree, error) {
	t, _, err := ingest(data, false)
	return t, err
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*xdm.Tree, error) {
	// The scanner never writes to its input, so aliasing the string's bytes
	// is safe and keeps the path copy-free.
	return ParseBytes(stringBytes(s))
}

// IngestString ingests an XML document held in a string (copy-free: strings
// are immutable, so the ownership condition of Ingest holds trivially).
func IngestString(s string) (*Index, error) {
	_, ix, err := ingest(stringBytes(s), true)
	return ix, err
}

// IngestWriter is an io.Writer front-end to the ingester: the document
// generators stream serialized XML into it and Finish scans the
// accumulated bytes, so no intermediate string of the full document is
// ever materialized.
type IngestWriter struct {
	buf []byte
}

// NewIngestWriter returns a writer expecting roughly sizeHint bytes.
func NewIngestWriter(sizeHint int) *IngestWriter {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &IngestWriter{buf: make([]byte, 0, sizeHint)}
}

// Write appends p to the pending document.
func (w *IngestWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// Bytes returns the accumulated document bytes (owned by the writer).
func (w *IngestWriter) Bytes() []byte { return w.buf }

// Finish ingests the accumulated document. The writer must not be reused
// afterwards: the returned tree aliases its buffer.
func (w *IngestWriter) Finish() (*Index, error) {
	return Ingest(w.buf)
}

// ingester is the fused scanner + builder state for one document.
type ingester struct {
	data []byte
	pos  int
	b    *xdm.TreeBuilder

	sawRoot bool
	open    []xdm.Sym // symbols of the open elements, for end-tag matching

	// Incremental index streams (nil stays nil when emitIndex is false).
	// Appending in scan order is appending in preorder, so every stream —
	// including the merged node() and attribute::* streams — comes out
	// sorted with no sort pass, exactly like BuildIndex's column scan.
	emitIndex bool
	elemBySym [][]int32
	attrBySym [][]int32
	allElems  []int32
	allText   []int32
	allNodes  []int32
	allAttrs  []int32

	scratch   []byte     // reused decode buffer for entity-bearing character data
	attrSpans []attrSpan // reused per-tag attribute buffer

	// nsBindings tracks xmlns:p="..." declarations in scope, recording for
	// each whether the bound URI is the literal string "xmlns". encoding/xml
	// resolves a prefixed attribute to its namespace URI before the drop
	// decision, so an attribute whose prefix maps to the URI "xmlns" becomes
	// indistinguishable from a real declaration and ParseStd drops it; the
	// scanner mirrors that by resolving prefixes against this stack. Empty
	// for documents without prefixed namespace declarations (the common
	// case), where it costs nothing.
	nsBindings []nsBinding
}

// attrSpan records the byte extents of one attribute in the current tag:
// its name and its raw (still encoded) value.
type attrSpan struct {
	ns, ne int
	vs, ve int
}

// nsBinding is one xmlns:prefix declaration in scope.
type nsBinding struct {
	prefix  []byte
	isXmlns bool // the bound URI is the literal string "xmlns"
	depth   int  // element depth of the declaring tag
}

// ingest runs the fused scan. With emitIndex, the per-symbol rank streams
// are assembled during the same pass and returned as a ready Index.
func ingest(data []byte, emitIndex bool) (*xdm.Tree, *Index, error) {
	in := &ingester{
		data:      data,
		b:         xdm.NewTreeBuilder(nodeHint(data)),
		emitIndex: emitIndex,
	}
	if err := in.run(); err != nil {
		return nil, nil, err
	}
	t := in.b.Finish()
	if !emitIndex {
		return t, nil, nil
	}
	return t, in.finishIndex(t), nil
}

// nodeHint estimates the node count of a document by counting its structural
// bytes: every tag owns one '<' (start and end tags both, so elements and the
// text runs between them are covered) and every attribute owns one '='. The
// '=' count alone is unreliable — '=' is an ordinary character inside text
// and attribute values, so an equation-heavy document would inflate the hint
// far past the real node count and the builder would pre-allocate slabs it
// never fills. Attributes live only inside tags, and a tag of a well-formed
// document holds at most a handful of them, so the '=' contribution is capped
// at twice the tag count; beyond that the excess is provably text. The two
// vectorized Count passes are noise next to the scan itself, and the capped
// estimate tracks the real node count within a few tens of percent for
// element-dense, data-heavy and '='-laden documents alike — where a bytes/16
// guess missed by 2-3x in either direction and paid for it in slab
// over-allocation.
func nodeHint(data []byte) int {
	lt := bytes.Count(data, []byte{'<'})
	eq := bytes.Count(data, []byte{'='})
	if eq > 2*lt {
		eq = 2 * lt
	}
	return lt + eq + 16
}

func (in *ingester) run() error {
	data := in.data
	for in.pos < len(data) {
		if data[in.pos] != '<' {
			if err := in.text(); err != nil {
				return err
			}
			continue
		}
		if in.pos+1 >= len(data) {
			return in.errEOF()
		}
		var err error
		switch data[in.pos+1] {
		case '/':
			err = in.endTag()
		case '!':
			err = in.bang()
		case '?':
			err = in.procInst()
		default:
			err = in.startTag()
		}
		if err != nil {
			return err
		}
	}
	if in.b.Depth() > 0 {
		return fmt.Errorf("xmlstore: unexpected end of input inside <%s>", in.b.Name(in.b.CurrentSym()))
	}
	if !in.sawRoot {
		return fmt.Errorf("xmlstore: no root element")
	}
	return nil
}

// errEOF reports input ending in the middle of a markup construct.
func (in *ingester) errEOF() error {
	if in.b.Depth() > 0 {
		return fmt.Errorf("xmlstore: unexpected end of input inside <%s>", in.b.Name(in.b.CurrentSym()))
	}
	return fmt.Errorf("xmlstore: unexpected end of input")
}

// text scans the character-data run starting at pos (a non-'<' byte) and
// emits it as a text node unless it is whitespace-only or outside the root.
func (in *ingester) text() error {
	data := in.data
	start := in.pos
	i := start
	for i < len(data) && data[i] != '<' {
		i++
	}
	in.pos = i
	return in.segment(data[start:i], false)
}

// segment handles one character-data segment — a text run, or the contents
// of one CDATA section (cdata true: '&' is literal there). Segments are
// dropped when whitespace-only or outside the root, matching ParseStd.
func (in *ingester) segment(raw []byte, cdata bool) error {
	if in.b.Depth() == 0 || len(raw) == 0 {
		// Character data outside the root element carries no node. ParseStd
		// ignores it the same way (without even decoding its entities, which
		// makes the fast path strictly more lenient there).
		return nil
	}
	simple, wsOnly, hasHigh := scanSegment(raw, cdata)
	if simple {
		if wsOnly {
			return nil
		}
		s := byteString(raw)
		if hasHigh && strings.TrimSpace(s) == "" {
			return nil // non-ASCII Unicode whitespace, e.g. NBSP
		}
		in.emitText(s)
		return nil
	}
	decoded, err := in.decode(raw, cdata)
	if err != nil {
		return err
	}
	if strings.TrimSpace(decoded) == "" {
		return nil
	}
	in.emitText(decoded)
	return nil
}

// scanSegment classifies a raw segment: simple (needs no decoding — no
// entity, no carriage return), whitespace-only so far as ASCII can tell,
// and whether any non-ASCII byte occurs.
func scanSegment(raw []byte, cdata bool) (simple, wsOnly, hasHigh bool) {
	simple, wsOnly = true, true
	for _, c := range raw {
		switch {
		case c == '\r' || (c == '&' && !cdata):
			simple = false
		case c == ' ' || c == '\t' || c == '\n':
		default:
			wsOnly = false
			if c >= 0x80 {
				hasHigh = true
			}
		}
	}
	return simple, wsOnly, hasHigh
}

// decode rewrites a segment with entities expanded (unless cdata) and line
// endings normalized ("\r\n" and "\r" become "\n", matching encoding/xml;
// decoded character references are exempt).
func (in *ingester) decode(raw []byte, cdata bool) (string, error) {
	buf := in.scratch[:0]
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '&' && !cdata:
			r, n, err := decodeEntity(raw[i:])
			if err != nil {
				return "", err
			}
			buf = utf8.AppendRune(buf, r)
			i += n
		case c == '\r':
			buf = append(buf, '\n')
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
		default:
			buf = append(buf, c)
			i++
		}
	}
	in.scratch = buf
	return string(buf), nil
}

func (in *ingester) emitText(s string) {
	pre := in.b.Text(s)
	if in.emitIndex {
		in.allText = append(in.allText, pre)
		in.allNodes = append(in.allNodes, pre)
	}
}

// startTag parses a start or empty-element tag at pos ('<'). Attribute
// spans are buffered until the whole tag is scanned because namespace
// resolution is order-independent: a declaration may follow the attributes
// it affects within the same tag.
func (in *ingester) startTag() error {
	data := in.data
	i := in.pos + 1
	e := scanName(data, i)
	if e == i {
		return fmt.Errorf("xmlstore: expected element name after < at offset %d", in.pos)
	}
	_, local := splitName(data[i:e])
	if in.b.Depth() == 0 {
		if in.sawRoot {
			return fmt.Errorf("xmlstore: multiple root elements")
		}
		in.sawRoot = true
	}
	pre, sym := in.b.OpenElement(local)
	in.open = append(in.open, sym)
	if in.emitIndex {
		in.addElem(sym, pre)
	}
	attrs := in.attrSpans[:0]
	i = e
	selfClose := false
scan:
	for {
		i = skipWS(data, i)
		if i >= len(data) {
			return in.errEOF()
		}
		switch data[i] {
		case '>':
			in.pos = i + 1
			break scan
		case '/':
			if i+1 >= len(data) {
				return in.errEOF()
			}
			if data[i+1] != '>' {
				return fmt.Errorf("xmlstore: expected /> in element at offset %d", i)
			}
			selfClose = true
			in.pos = i + 2
			break scan
		}
		ae := scanName(data, i)
		if ae == i {
			return fmt.Errorf("xmlstore: expected attribute name in element at offset %d", i)
		}
		ns := i
		i = skipWS(data, ae)
		if i >= len(data) {
			return in.errEOF()
		}
		if data[i] != '=' {
			return fmt.Errorf("xmlstore: attribute name without = in element at offset %d", i)
		}
		i = skipWS(data, i+1)
		if i >= len(data) {
			return in.errEOF()
		}
		quote := data[i]
		if quote != '"' && quote != '\'' {
			return fmt.Errorf("xmlstore: unquoted or missing attribute value in element at offset %d", i)
		}
		i++
		vs := i
		for i < len(data) && data[i] != quote {
			i++
		}
		if i >= len(data) {
			return in.errEOF()
		}
		attrs = append(attrs, attrSpan{ns: ns, ne: ae, vs: vs, ve: i})
		i++
	}
	in.attrSpans = attrs
	depth := in.b.Depth()
	// Pass 1: register this tag's prefixed namespace declarations so the
	// drop decisions below see them regardless of attribute order.
	for _, a := range attrs {
		prefix, plocal := splitName(data[a.ns:a.ne])
		if string(prefix) != "xmlns" {
			continue
		}
		uri, err := in.attrValue(data[a.vs:a.ve])
		if err != nil {
			return err
		}
		in.nsBindings = append(in.nsBindings, nsBinding{
			prefix:  plocal,
			isXmlns: uri == "xmlns",
			depth:   depth,
		})
	}
	// Pass 2: emit attribute nodes, dropping the namespace declarations and
	// any attribute whose prefix resolves to the xmlns space.
	for _, a := range attrs {
		aname := data[a.ns:a.ne]
		if isNSDecl(aname) {
			continue // namespace declarations carry no attribute node
		}
		aprefix, alocal := splitName(aname)
		if len(aprefix) > 0 && in.prefixIsXmlns(aprefix) {
			continue
		}
		value, err := in.attrValue(data[a.vs:a.ve])
		if err != nil {
			return err
		}
		apre, asym := in.b.Attr(alocal, value)
		if in.emitIndex {
			in.addAttr(asym, apre)
		}
	}
	if selfClose {
		in.popBindings(depth)
		in.b.CloseElement()
		in.open = in.open[:len(in.open)-1]
	}
	return nil
}

// prefixIsXmlns resolves a prefix against the innermost binding in scope
// and reports whether it maps to the literal URI "xmlns".
func (in *ingester) prefixIsXmlns(prefix []byte) bool {
	for j := len(in.nsBindings) - 1; j >= 0; j-- {
		if bytes.Equal(in.nsBindings[j].prefix, prefix) {
			return in.nsBindings[j].isXmlns
		}
	}
	return false
}

// popBindings drops the namespace bindings declared at or below depth (the
// element at that depth is closing, so its declarations leave scope).
func (in *ingester) popBindings(depth int) {
	for len(in.nsBindings) > 0 && in.nsBindings[len(in.nsBindings)-1].depth >= depth {
		in.nsBindings = in.nsBindings[:len(in.nsBindings)-1]
	}
}

// attrValue materializes an attribute value, aliasing the input when no
// decoding is needed.
func (in *ingester) attrValue(raw []byte) (string, error) {
	for _, c := range raw {
		if c == '&' || c == '\r' {
			return in.decode(raw, false)
		}
	}
	return byteString(raw), nil
}

// endTag parses an end tag at pos ("</").
func (in *ingester) endTag() error {
	data := in.data
	i := in.pos + 2
	e := scanName(data, i)
	if e == i {
		return fmt.Errorf("xmlstore: expected element name after </ at offset %d", in.pos)
	}
	_, local := splitName(data[i:e])
	i = skipWS(data, e)
	if i >= len(data) {
		return in.errEOF()
	}
	if data[i] != '>' {
		return fmt.Errorf("xmlstore: invalid characters between </%s and > at offset %d", local, i)
	}
	if len(in.open) == 0 {
		return fmt.Errorf("xmlstore: unbalanced end element %s", local)
	}
	sym := in.open[len(in.open)-1]
	if in.b.Name(sym) != string(local) {
		return fmt.Errorf("xmlstore: element <%s> closed by </%s>", in.b.Name(sym), local)
	}
	in.open = in.open[:len(in.open)-1]
	if len(in.nsBindings) > 0 {
		in.popBindings(in.b.Depth())
	}
	in.b.CloseElement()
	in.pos = i + 1
	return nil
}

var (
	commentOpen  = []byte("<!--")
	commentClose = []byte("-->")
	cdataOpen    = []byte("<![CDATA[")
	cdataClose   = []byte("]]>")
)

// bang dispatches the markup at pos ("<!"): comment, CDATA section, or
// directive (DOCTYPE and friends, skipped like encoding/xml's Directive
// tokens are by ParseStd).
func (in *ingester) bang() error {
	data := in.data
	rest := data[in.pos:]
	switch {
	case bytes.HasPrefix(rest, commentOpen):
		end := bytes.Index(rest[len(commentOpen):], commentClose)
		if end < 0 {
			return fmt.Errorf("xmlstore: unterminated comment")
		}
		in.pos += len(commentOpen) + end + len(commentClose)
		return nil
	case bytes.HasPrefix(rest, cdataOpen):
		end := bytes.Index(rest[len(cdataOpen):], cdataClose)
		if end < 0 {
			return fmt.Errorf("xmlstore: unterminated CDATA section")
		}
		raw := rest[len(cdataOpen) : len(cdataOpen)+end]
		in.pos += len(cdataOpen) + end + len(cdataClose)
		// A CDATA section is its own character-data segment: adjacent text
		// produces separate text nodes, exactly as the std tokenizer emits
		// separate CharData tokens around it.
		return in.segment(raw, true)
	default:
		return in.directive()
	}
}

// directive skips a <! ... > construct, tracking quotes, nested angle
// brackets (internal DTD subsets), and embedded comments the way
// encoding/xml's directive reader does. Like that reader, the first byte
// after "<!" is consumed without interpretation — no quote, bracket, or
// terminator significance — so <!"> is a complete directive while <!"x">
// opens a quote at the second quote character.
func (in *ingester) directive() error {
	data := in.data
	if in.pos+2 >= len(data) {
		return fmt.Errorf("xmlstore: unterminated directive")
	}
	i := in.pos + 3
	depth := 1
	for i < len(data) {
		switch c := data[i]; c {
		case '"', '\'':
			j := i + 1
			for j < len(data) && data[j] != c {
				j++
			}
			if j >= len(data) {
				return fmt.Errorf("xmlstore: unterminated directive")
			}
			i = j + 1
		case '<':
			if bytes.HasPrefix(data[i:], commentOpen) {
				end := bytes.Index(data[i+len(commentOpen):], commentClose)
				if end < 0 {
					return fmt.Errorf("xmlstore: unterminated comment")
				}
				i += len(commentOpen) + end + len(commentClose)
			} else {
				depth++
				i++
			}
		case '>':
			depth--
			i++
			if depth == 0 {
				in.pos = i
				return nil
			}
		default:
			i++
		}
	}
	return fmt.Errorf("xmlstore: unterminated directive")
}

// procInst skips a processing instruction (including the XML declaration).
func (in *ingester) procInst() error {
	end := bytes.Index(in.data[in.pos+2:], []byte("?>"))
	if end < 0 {
		return fmt.Errorf("xmlstore: unterminated processing instruction")
	}
	in.pos += 2 + end + 2
	return nil
}

// addElem appends an element rank to its per-symbol and merged streams.
func (in *ingester) addElem(sym xdm.Sym, pre int32) {
	for int(sym) >= len(in.elemBySym) {
		in.elemBySym = append(in.elemBySym, nil)
	}
	in.elemBySym[sym] = append(in.elemBySym[sym], pre)
	in.allElems = append(in.allElems, pre)
	in.allNodes = append(in.allNodes, pre)
}

// addAttr appends an attribute rank to its per-symbol and merged streams.
func (in *ingester) addAttr(sym xdm.Sym, pre int32) {
	for int(sym) >= len(in.attrBySym) {
		in.attrBySym = append(in.attrBySym, nil)
	}
	in.attrBySym[sym] = append(in.attrBySym[sym], pre)
	in.allAttrs = append(in.allAttrs, pre)
}

// finishIndex assembles the incrementally built streams into an Index,
// padding the per-symbol tables to the final symbol count (symbols interned
// only for kinds that never occurred keep empty streams).
func (in *ingester) finishIndex(t *xdm.Tree) *Index {
	nsyms := t.Syms.Len()
	for len(in.elemBySym) < nsyms {
		in.elemBySym = append(in.elemBySym, nil)
	}
	for len(in.attrBySym) < nsyms {
		in.attrBySym = append(in.attrBySym, nil)
	}
	return &Index{
		Tree:      t,
		elemBySym: in.elemBySym,
		attrBySym: in.attrBySym,
		allElems:  in.allElems,
		allText:   in.allText,
		allNodes:  in.allNodes,
		allAttrs:  in.allAttrs,
	}
}
