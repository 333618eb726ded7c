package xmlstore

// Snapshot format v3: a columnar corpus serialization — the persistence
// substrate that makes restarting a server O(open) instead of O(re-parse),
// and, over an mmap (see mmap.go), makes corpora larger than RAM queryable:
// bytes fault in per page as queries touch them.
//
// The format dumps exactly what the in-memory store holds: the per-member
// structure-of-arrays region columns (Post/Size/Level/Parent/Kind/Sym), the
// per-member symbol tables and text blobs, the per-symbol element/attribute
// rank streams plus the merged streams, and the corpus-level name table and
// member URIs. Loading rebuilds no region encoding and re-interns no name:
// the fixed-width little-endian arrays are sliced straight out of the
// snapshot buffer (zero-copy on little-endian hosts, a decode-copy fallback
// elsewhere).
//
// v3 adds the two tables that let the reader defer everything per member:
//
//   - a corpus-level member offset table (u64 absolute offsets, one past the
//     end included), validated in O(members) at open — monotonic, 8-aligned,
//     last entry equal to the file length, so a truncated or shrunk file
//     errors at open rather than faulting mid-query;
//   - a fixed 128-byte per-member section directory (counts + 14 section
//     offsets), enough to answer "how many nodes" and "how long is symbol
//     s's stream" from one or two pages without parsing the member.
//
// Open therefore costs the header, the offset table and the corpus tables;
// each member's full parse + structural validation runs at most once, behind
// a sync.Once, the first time a query (or an explicit Ensure) needs it —
// first query on a member pays that member's validation, untouched members
// pay nothing. The pointer data model (Node structs) stays deferred behind
// the same once chain (xdm shell trees), exactly as in v2.
//
// Layout (all integers little-endian; every array starts 8-byte aligned, so
// int32/u32 arrays can be viewed in place at any page offset):
//
//	header:  magic "XQTS", u8 version=3, pad3, u32 nMembers, u32 nNames
//	offsets: u64 memberOff[nMembers+1] — absolute; memberOff[0] is the first
//	         member, memberOff[nMembers] the file length
//	uris:    string table (nMembers entries)
//	names:   string table (nNames entries) — corpus name table
//	nameSyms: int32[nNames*nMembers], row-major by name
//	members: nMembers member sections at their stated offsets
//
//	member:  directory (128 bytes): u32 nNodes, nSyms, nTexts, reserved,
//	         then u64 sect[14] — member-relative offsets of the 13 sections
//	         below plus the member length
//	         [0]  symbols: string table (nSyms)
//	         [1..5] Post/Size/Level/Parent/Sym int32[nNodes] each (padded)
//	         [6]  Kind u8[nNodes] (padded)
//	         [7]  texts: string table (nTexts) — text/attr values in preorder
//	         [8]  elemOff u32[nSyms+1] (padded)
//	         [9]  elemData int32[elemOff[nSyms]] (padded)
//	         [10] attrOff u32[nSyms+1] (padded)
//	         [11] attrData int32[attrOff[nSyms]] (padded)
//	         [12] u32 nAllElems, nAllText, nAllNodes, nAllAttrs, then the
//	              four merged int32 streams (each padded)
//
//	string table (count): u32 offsets[count+1] (cumulative, offsets[0]=0),
//	         then the blob bytes; strings alias the blob on load
//
// The v2 format (inline member counts, no offset tables) is not readable by
// this build; snapshots are regenerated from the XML they index.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"unsafe"

	"xqtp/internal/xdm"
)

const (
	snapshotMagic   = "XQTS"
	snapshotVersion = 3
)

// Member section indexes into the per-member directory.
const (
	secSymbols = iota
	secPost
	secSize
	secLevel
	secParent
	secSym
	secKind
	secTexts
	secElemOff
	secElemData
	secAttrOff
	secAttrData
	secMerged
	numMemberSections
)

// memberDirSize is the fixed directory prefix of every member: the counts
// plus the section offset table, sized to a multiple of 8 so the member
// body stays 8-aligned.
const memberDirSize = 16 + 8*(numMemberSections+1)

// hostLittleEndian reports whether int32 slices can alias snapshot bytes
// directly. On big-endian hosts the reader falls back to a decode copy.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// forcePortable disables the zero-copy aliasing between snapshot bytes and
// the loaded columns/streams (and the writer's mirror fast path), forcing
// the per-element encode/decode loops that big-endian hosts run. In-package
// tests flip it to hold the portable branch to the differential suite
// without big-endian hardware.
var forcePortable bool

// aliasInt32 gates the zero-copy int32 view of snapshot bytes.
func aliasInt32() bool { return hostLittleEndian && !forcePortable }

// CorpusSnapshot is the in-memory image of a v3 snapshot: the member URIs
// and indexes, plus the corpus name table in flat serializable form
// (Names[i]'s symbol in member m sits at NameSyms[i*len(URIs)+m]).
// Single-document snapshots are one-member corpora with empty Names.
//
// Opened deferred (OpenCorpusDeferred, OpenCorpusMapping), the Indexes are
// shells: identity and directory only, parse + validation on first use.
type CorpusSnapshot struct {
	URIs     []string
	Indexes  []*Index
	Names    []string
	NameSyms []xdm.Sym

	mapping *Mapping // non-nil when the snapshot pages a mapped file
}

// Mapping returns the file mapping behind the snapshot (nil for in-memory
// buffers). The collection layer owns its lifecycle: Corpus.Close closes it.
func (s *CorpusSnapshot) Mapping() *Mapping { return s.mapping }

// ---------------------------------------------------------------------------
// Writer

// snapWriter writes the stream or, with a nil sink, only counts: the
// counting pass runs the same code as the real write to learn every member's
// size and section offsets, which the real pass then embeds in the offset
// tables. mark records a section boundary.
type snapWriter struct {
	w     *bufio.Writer // nil: counting pass
	off   int64
	err   error
	marks []int64
}

func (w *snapWriter) mark() { w.marks = append(w.marks, w.off) }

func (w *snapWriter) bytes(b []byte) {
	if w.err != nil {
		return
	}
	if w.w != nil {
		_, w.err = w.w.Write(b)
	}
	w.off += int64(len(b))
}

func (w *snapWriter) u32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	w.bytes(buf[:])
}

func (w *snapWriter) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.bytes(buf[:])
}

// i32s writes an int32 array. With aliasing enabled the slice's bytes go
// out as-is; otherwise each element is encoded.
func (w *snapWriter) i32s(a []int32) {
	if len(a) == 0 {
		return
	}
	if aliasInt32() {
		w.bytes(unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), len(a)*4))
		return
	}
	for _, v := range a {
		w.u32(uint32(v))
	}
}

var snapPad [8]byte

// align8 pads the stream to the next 8-byte boundary.
func (w *snapWriter) align8() {
	if rem := int(w.off & 7); rem != 0 {
		w.bytes(snapPad[:8-rem])
	}
}

// stringTable writes count strings as cumulative offsets plus one blob.
func (w *snapWriter) stringTable(ss []string) {
	off := uint32(0)
	w.u32(0)
	for _, s := range ss {
		off += uint32(len(s))
		w.u32(off)
	}
	w.align8()
	for _, s := range ss {
		w.bytes(stringBytes(s))
	}
	w.align8()
}

// WriteCorpus serializes a corpus snapshot. Members still deferred from a
// snapshot open are loaded first (the writer walks every column anyway);
// a member whose deferred validation fails aborts the write.
func WriteCorpus(w io.Writer, s *CorpusSnapshot) error {
	if len(s.URIs) != len(s.Indexes) {
		return fmt.Errorf("xmlstore: %d URIs for %d members", len(s.URIs), len(s.Indexes))
	}
	if len(s.NameSyms) != len(s.Names)*len(s.URIs) {
		return fmt.Errorf("xmlstore: name table has %d cells, want %d", len(s.NameSyms), len(s.Names)*len(s.URIs))
	}
	for _, ix := range s.Indexes {
		if err := ix.Ensure(); err != nil {
			return err
		}
	}

	// Counting pass, members first: body sizes and section marks. The
	// directory prefix is fixed-size, so member-relative section offsets are
	// the marks shifted by it.
	dirs := make([][]int64, len(s.Indexes))
	sizes := make([]int64, len(s.Indexes))
	for i, ix := range s.Indexes {
		cw := &snapWriter{}
		writeMemberBody(cw, ix)
		if len(cw.marks) != numMemberSections {
			return fmt.Errorf("xmlstore: internal: member body recorded %d section marks, want %d", len(cw.marks), numMemberSections)
		}
		sect := make([]int64, numMemberSections+1)
		for k, m := range cw.marks {
			sect[k] = memberDirSize + m
		}
		sect[numMemberSections] = memberDirSize + cw.off
		dirs[i] = sect
		sizes[i] = memberDirSize + cw.off
	}
	// Counting pass, corpus prefix: its size does not depend on the offset
	// values (fixed-width u64 cells), so dummy offsets measure it exactly.
	memberOff := make([]int64, len(s.Indexes)+1)
	pw := &snapWriter{}
	writeCorpusPrefix(pw, s, memberOff)
	memberOff[0] = pw.off
	for i := range s.Indexes {
		memberOff[i+1] = memberOff[i] + sizes[i]
	}

	sw := &snapWriter{w: bufio.NewWriter(w)}
	writeCorpusPrefix(sw, s, memberOff)
	for i, ix := range s.Indexes {
		writeMemberDir(sw, ix, dirs[i])
		writeMemberBody(sw, ix)
		if sw.err == nil && sw.off != memberOff[i+1] {
			return fmt.Errorf("xmlstore: internal: member %d ends at %d, counting pass said %d", i, sw.off, memberOff[i+1])
		}
	}
	if sw.err != nil {
		return sw.err
	}
	return sw.w.Flush()
}

func writeCorpusPrefix(w *snapWriter, s *CorpusSnapshot, memberOff []int64) {
	w.bytes([]byte(snapshotMagic))
	w.bytes([]byte{snapshotVersion, 0, 0, 0})
	w.u32(uint32(len(s.URIs)))
	w.u32(uint32(len(s.Names)))
	for _, off := range memberOff {
		w.u64(uint64(off))
	}
	w.stringTable(s.URIs)
	w.stringTable(s.Names)
	if len(s.NameSyms) > 0 {
		w.i32s(unsafe.Slice((*int32)(unsafe.Pointer(&s.NameSyms[0])), len(s.NameSyms)))
	}
	w.align8()
}

func writeMemberDir(w *snapWriter, ix *Index, sect []int64) {
	t := ix.Tree
	w.u32(uint32(len(t.Cols.Kind)))
	w.u32(uint32(t.Syms.Len()))
	w.u32(uint32(len(t.TextValues())))
	w.u32(0)
	for _, s := range sect {
		w.u64(uint64(s))
	}
}

func writeMemberBody(w *snapWriter, ix *Index) {
	t := ix.Tree
	cols := t.Cols
	// The text-bearing values in preorder — the same order the loader hands
	// back to FillColumns. TextValues reads a loaded tree's stored values
	// directly, so re-saving a snapshot-loaded corpus never forces node
	// materialization.
	texts := t.TextValues()
	syms := t.Syms.Names()
	w.mark() // secSymbols
	w.stringTable(syms)
	for _, col := range [][]int32{cols.Post, cols.Size, cols.Level, cols.Parent, cols.Sym} {
		w.mark() // secPost..secSym
		w.i32s(col)
		w.align8()
	}
	w.mark() // secKind
	w.bytes(cols.Kind)
	w.align8()
	w.mark() // secTexts
	w.stringTable(texts)
	writeStreams(w, ix.elemBySym) // secElemOff, secElemData
	writeStreams(w, ix.attrBySym) // secAttrOff, secAttrData
	w.mark()                      // secMerged
	w.u32(uint32(len(ix.allElems)))
	w.u32(uint32(len(ix.allText)))
	w.u32(uint32(len(ix.allNodes)))
	w.u32(uint32(len(ix.allAttrs)))
	for _, stream := range [][]int32{ix.allElems, ix.allText, ix.allNodes, ix.allAttrs} {
		w.i32s(stream)
		w.align8()
	}
}

// writeStreams writes per-symbol rank streams as two sections: cumulative
// offsets, then one concatenated data array. Keeping the offsets in their
// own section lets the deferred reader answer stream lengths from the
// directory without touching the data pages.
func writeStreams(w *snapWriter, streams [][]int32) {
	w.mark() // offsets section
	off := uint32(0)
	w.u32(0)
	for _, s := range streams {
		off += uint32(len(s))
		w.u32(off)
	}
	w.align8()
	w.mark() // data section
	for _, s := range streams {
		w.i32s(s)
	}
	w.align8()
}

// ---------------------------------------------------------------------------
// Reader

type snapReader struct {
	data []byte
	off  int
}

func (r *snapReader) remaining() int { return len(r.data) - r.off }

func (r *snapReader) take(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("xmlstore: snapshot truncated at offset %d (need %d bytes)", r.off, n)
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b, nil
}

func (r *snapReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *snapReader) align8() error {
	if rem := r.off & 7; rem != 0 {
		if _, err := r.take(8 - rem); err != nil {
			return err
		}
	}
	return nil
}

// i32s returns n int32 values. The count is bounds-checked against the
// remaining bytes before any allocation, so a hostile header cannot force a
// huge make. With aliasing enabled and an aligned cursor the returned slice
// aliases the snapshot buffer.
func (r *snapReader) i32s(n int) ([]int32, error) {
	if n < 0 || n > r.remaining()/4 {
		return nil, fmt.Errorf("xmlstore: snapshot truncated: %d int32s at offset %d", n, r.off)
	}
	b, err := r.take(n * 4)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if aliasInt32() && uintptr(unsafe.Pointer(&b[0]))&3 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

// stringTable reads a table of count strings; the strings alias the buffer.
func (r *snapReader) stringTable(count int) ([]string, error) {
	if count < 0 || count+1 > r.remaining()/4 {
		return nil, fmt.Errorf("xmlstore: snapshot truncated: string table of %d at offset %d", count, r.off)
	}
	offb, err := r.take((count + 1) * 4)
	if err != nil {
		return nil, err
	}
	if err := r.align8(); err != nil {
		return nil, err
	}
	if first := binary.LittleEndian.Uint32(offb); first != 0 {
		return nil, fmt.Errorf("xmlstore: snapshot string table does not start at 0")
	}
	blobLen := binary.LittleEndian.Uint32(offb[count*4:])
	blob, err := r.take(int(blobLen))
	if err != nil {
		return nil, err
	}
	if err := r.align8(); err != nil {
		return nil, err
	}
	out := make([]string, count)
	prev := uint32(0)
	for i := 0; i < count; i++ {
		end := binary.LittleEndian.Uint32(offb[(i+1)*4:])
		if end < prev || end > blobLen {
			return nil, fmt.Errorf("xmlstore: snapshot string table offsets out of order")
		}
		out[i] = byteString(blob[prev:end])
		prev = end
	}
	return out, nil
}

// checkRanks validates a rank stream: strictly ascending within [0, nNodes),
// so Materialize and the binary-search kernels can never index out of range
// over a corrupted snapshot.
func checkRanks(a []int32, nNodes int) error {
	prev := int32(-1)
	for _, v := range a {
		if v <= prev || int(v) >= nNodes {
			return fmt.Errorf("xmlstore: snapshot rank stream not ascending in range")
		}
		prev = v
	}
	return nil
}

// mergedStream reads one merged rank stream of length n, validating order
// and range. Streams within a section are each followed by alignment.
func (r *snapReader) mergedStream(n, nNodes int) ([]int32, error) {
	a, err := r.i32s(n)
	if err != nil {
		return nil, err
	}
	if err := r.align8(); err != nil {
		return nil, err
	}
	if err := checkRanks(a, nNodes); err != nil {
		return nil, err
	}
	return a, nil
}

// ---------------------------------------------------------------------------
// Deferred members

// memberDir is a member's parsed directory: the counts and section offsets
// that answer size and stream-length probes without loading the member.
type memberDir struct {
	nNodes, nSyms, nTexts int
	sect                  [numMemberSections + 1]int64 // member-relative starts; last = member length
}

// parseMemberDir validates the fixed directory prefix of a member: counts,
// then a monotonic 8-aligned section table whose last entry is the member
// length. Every later probe indexes l.data inside [sect[k], sect[k+1])
// ranges this function bounded, so a corrupt directory can redirect probes
// only inside the member's own bytes.
func parseMemberDir(data []byte, d *memberDir) error {
	if len(data) < memberDirSize {
		return fmt.Errorf("xmlstore: snapshot member truncated: %d bytes, directory needs %d", len(data), memberDirSize)
	}
	d.nNodes = int(binary.LittleEndian.Uint32(data[0:]))
	d.nSyms = int(binary.LittleEndian.Uint32(data[4:]))
	d.nTexts = int(binary.LittleEndian.Uint32(data[8:]))
	prev := int64(memberDirSize)
	for k := 0; k <= numMemberSections; k++ {
		off := binary.LittleEndian.Uint64(data[16+8*k:])
		if off > uint64(len(data)) || int64(off) < prev || off&7 != 0 {
			return fmt.Errorf("xmlstore: snapshot member section table corrupt (section %d at %d)", k, off)
		}
		d.sect[k] = int64(off)
		prev = int64(off)
	}
	if d.sect[numMemberSections] != int64(len(data)) {
		return fmt.Errorf("xmlstore: snapshot member is %d bytes but its section table ends at %d", len(data), d.sect[numMemberSections])
	}
	return nil
}

// expect verifies the sequential parse sits exactly at a directory-stated
// section start — the cross-check tying the two views of the member (the
// directory probes and the full parse) together.
func (d *memberDir) expect(r *snapReader, k int) error {
	if int64(r.off) != d.sect[k] {
		return fmt.Errorf("xmlstore: snapshot member section %d starts at %d, directory says %d", k, r.off, d.sect[k])
	}
	return nil
}

// lazyMember is the deferred-load state of one snapshot member: the
// member's byte range, the directory cache, and the once-gated full parse.
type lazyMember struct {
	data   []byte   // the member's bytes (directory + body), a view of the snapshot buffer
	m      *Mapping // non-nil for file-mapped snapshots (paging hints, closed check)
	off    int64    // absolute offset of the member in the snapshot file
	member int      // member position, for error attribution

	// Corpus name-table cross-check, bound at open: names[i]'s symbol in
	// this member is nameSyms[i*stride+member]. Runs inside the deferred
	// load, so each member validates its own name-table column.
	names    []string
	nameSyms []xdm.Sym
	stride   int

	dirOnce sync.Once
	dirErr  error
	dir     memberDir

	once   sync.Once
	err    error       // sticky load failure
	loaded atomic.Bool // set after a successful load (advisory fast path)
}

// memberDir parses and caches the member's directory.
func (l *lazyMember) memberDir() (*memberDir, error) {
	l.dirOnce.Do(func() { l.dirErr = parseMemberDir(l.data, &l.dir) })
	if l.dirErr != nil {
		return nil, l.dirErr
	}
	return &l.dir, nil
}

// streamLen answers a stream-length probe from the directory: two u32 reads
// from the stream's offset section. ok=false when the directory cannot
// prove an answer (corrupt, or symbol out of the member's range) — the
// caller must then treat the stream as possibly non-empty.
func (l *lazyMember) streamLen(s xdm.Sym, attr bool) (int, bool) {
	d, err := l.memberDir()
	if err != nil || s < 0 || int(s) >= d.nSyms {
		return 0, false
	}
	sec := secElemOff
	if attr {
		sec = secAttrOff
	}
	base := d.sect[sec]
	if base+int64(d.nSyms+1)*4 > d.sect[sec+1] {
		return 0, false
	}
	a := binary.LittleEndian.Uint32(l.data[base+int64(s)*4:])
	b := binary.LittleEndian.Uint32(l.data[base+int64(s)*4+4:])
	if b < a {
		return 0, false
	}
	return int(b - a), true
}

// Ensure forces the member's deferred parse + structural validation; a
// no-op on loaded members and eagerly built indexes. The first error is
// sticky: every later Ensure returns it, and the member's tree is poisoned
// to an empty placeholder so pointer navigation cannot fault.
func (ix *Index) Ensure() error {
	l := ix.lazy
	if l == nil {
		return nil
	}
	l.once.Do(func() {
		l.err = ix.loadDeferred()
		if l.err == nil {
			l.loaded.Store(true)
		}
	})
	return l.err
}

// Loaded reports whether the member's columns are resident (always true for
// eagerly built indexes). Advisory: a concurrent Ensure may complete at any
// moment.
func (ix *Index) Loaded() bool {
	l := ix.lazy
	return l == nil || l.loaded.Load()
}

// NumNodes returns the member's node count — from the section directory on
// deferred members, so corpus-level accounting never forces loads.
func (ix *Index) NumNodes() int {
	if l := ix.lazy; l != nil && !l.loaded.Load() {
		if d, err := l.memberDir(); err == nil {
			return d.nNodes
		}
		return 0
	}
	return ix.Tree.CountNodes()
}

// StreamLen returns the length of the element (attr=false) or attribute
// (attr=true) rank stream for symbol s. On a deferred member it answers
// from the section directory — touching only the directory and offset-table
// pages, never forcing the load — which is what the corpus fan-out's
// per-member skip test needs: proving a stream empty must not cost a member
// parse. ok=false means no cheap proof exists; treat the stream as
// possibly non-empty.
func (ix *Index) StreamLen(s xdm.Sym, attr bool) (int, bool) {
	l := ix.lazy
	if l == nil || l.loaded.Load() {
		if attr {
			return len(ix.AttributeRanksSym(s)), true
		}
		return len(ix.ElementRanksSym(s)), true
	}
	return l.streamLen(s, attr)
}

// Prefetch asks the OS to start paging in a deferred member's bytes
// (madvise WILLNEED) — the corpus fan-out calls it when the skip test
// admits a member, so the load that follows faults against pages already in
// flight. No-op for loaded members and non-mapped snapshots.
func (ix *Index) Prefetch() {
	if l := ix.lazy; l != nil && l.m != nil && !l.loaded.Load() {
		l.m.AdviseWillNeed(l.off, len(l.data))
	}
}

// loadDeferred runs the member's full parse + validation (once, under the
// Ensure gate). A closed mapping fails with ErrSnapshotClosed before any
// page is touched.
func (ix *Index) loadDeferred() error {
	l := ix.lazy
	if l.m != nil {
		if _, err := l.m.Bytes(); err != nil {
			return err
		}
		// The parse walks the member front to back exactly once.
		l.m.AdviseSequential(l.off, len(l.data))
		defer l.m.AdviseNormal(l.off, len(l.data))
	}
	d, err := l.memberDir()
	if err != nil {
		return fmt.Errorf("xmlstore: snapshot member %d: %w", l.member, err)
	}
	r := &snapReader{data: l.data, off: memberDirSize}
	if err := ix.readMemberInto(r, d); err != nil {
		return fmt.Errorf("xmlstore: snapshot member %d: %w", l.member, err)
	}
	return nil
}

// readMemberInto parses the member body into the index's shell tree,
// cross-checking every section start against the directory. All structural
// validation of v2 lives on: rank streams ascending in range, columns
// validated by FillColumns, the corpus name-table column checked against
// the member's symbols.
func (ix *Index) readMemberInto(r *snapReader, d *memberDir) error {
	if err := d.expect(r, secSymbols); err != nil {
		return err
	}
	names, err := r.stringTable(d.nSyms)
	if err != nil {
		return err
	}
	syms, err := xdm.NewSymbols(names)
	if err != nil {
		return err
	}
	// Validate this member's corpus name-table column before anything is
	// installed on the tree, so a corrupt cell cannot alias one name's
	// stream to another's.
	if l := ix.lazy; l != nil {
		for i, name := range l.names {
			sym := l.nameSyms[i*l.stride+l.member]
			if sym == xdm.NoSym {
				continue
			}
			if int(sym) >= syms.Len() || syms.Name(sym) != name {
				return fmt.Errorf("xmlstore: snapshot name table cell (%q) does not match the member's symbols", name)
			}
		}
	}
	n := d.nNodes
	cols := &xdm.Cols{}
	colSecs := []struct {
		sec int
		dst *[]int32
	}{
		{secPost, &cols.Post}, {secSize, &cols.Size}, {secLevel, &cols.Level},
		{secParent, &cols.Parent}, {secSym, &cols.Sym},
	}
	for _, c := range colSecs {
		if err := d.expect(r, c.sec); err != nil {
			return err
		}
		if *c.dst, err = r.i32s(n); err != nil {
			return err
		}
		if err := r.align8(); err != nil {
			return err
		}
	}
	if err := d.expect(r, secKind); err != nil {
		return err
	}
	kind, err := r.take(n)
	if err != nil {
		return err
	}
	cols.Kind = kind
	if err := r.align8(); err != nil {
		return err
	}
	if err := d.expect(r, secTexts); err != nil {
		return err
	}
	texts, err := r.stringTable(d.nTexts)
	if err != nil {
		return err
	}
	elemBySym, err := readStreams(r, d, secElemOff, n)
	if err != nil {
		return err
	}
	attrBySym, err := readStreams(r, d, secAttrOff, n)
	if err != nil {
		return err
	}
	if err := d.expect(r, secMerged); err != nil {
		return err
	}
	var counts [4]uint32
	for i := range counts {
		if counts[i], err = r.u32(); err != nil {
			return err
		}
	}
	allElems, err := r.mergedStream(int(counts[0]), n)
	if err != nil {
		return err
	}
	allText, err := r.mergedStream(int(counts[1]), n)
	if err != nil {
		return err
	}
	allNodes, err := r.mergedStream(int(counts[2]), n)
	if err != nil {
		return err
	}
	allAttrs, err := r.mergedStream(int(counts[3]), n)
	if err != nil {
		return err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("xmlstore: snapshot member has %d trailing bytes", r.remaining())
	}
	if err := ix.Tree.FillColumns(cols, syms, texts); err != nil {
		return err
	}
	ix.elemBySym = elemBySym
	ix.attrBySym = attrBySym
	ix.allElems = allElems
	ix.allText = allText
	ix.allNodes = allNodes
	ix.allAttrs = allAttrs
	return nil
}

// readStreams reads a per-symbol stream pair (offsets section, data
// section), returning subslices of one shared array. offSec names the
// offsets section; the data section is offSec+1.
func readStreams(r *snapReader, d *memberDir, offSec, nNodes int) ([][]int32, error) {
	if err := d.expect(r, offSec); err != nil {
		return nil, err
	}
	nsyms := d.nSyms
	if nsyms < 0 || nsyms+1 > r.remaining()/4 {
		return nil, fmt.Errorf("xmlstore: snapshot truncated: stream table of %d at offset %d", nsyms, r.off)
	}
	offb, err := r.take((nsyms + 1) * 4)
	if err != nil {
		return nil, err
	}
	if err := r.align8(); err != nil {
		return nil, err
	}
	if first := binary.LittleEndian.Uint32(offb); first != 0 {
		return nil, fmt.Errorf("xmlstore: snapshot stream offsets do not start at 0")
	}
	if err := d.expect(r, offSec+1); err != nil {
		return nil, err
	}
	total := binary.LittleEndian.Uint32(offb[nsyms*4:])
	data, err := r.i32s(int(total))
	if err != nil {
		return nil, err
	}
	if err := r.align8(); err != nil {
		return nil, err
	}
	out := make([][]int32, nsyms)
	prev := uint32(0)
	for i := 0; i < nsyms; i++ {
		end := binary.LittleEndian.Uint32(offb[(i+1)*4:])
		if end < prev || end > total {
			return nil, fmt.Errorf("xmlstore: snapshot stream offsets out of order")
		}
		if end > prev {
			// Each symbol's stream is ascending on its own; the concatenation
			// across symbols is not.
			if err := checkRanks(data[prev:end], nNodes); err != nil {
				return nil, err
			}
			out[i] = data[prev:end:end]
		}
		prev = end
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Open entry points

// OpenCorpus deserializes a corpus snapshot held in data, loading and
// validating every member before returning — the read-all path, unchanged
// semantics from v2. It takes ownership of the buffer: the loaded trees'
// names, text values, columns and rank streams alias it (with zero-copy
// aliasing enabled), so the caller must not modify it afterwards. Corrupted
// or truncated input returns an error, never a panic — the fuzz suite holds
// the reader to that.
func OpenCorpus(data []byte) (*CorpusSnapshot, error) {
	s, err := openCorpus(data, nil)
	if err != nil {
		return nil, err
	}
	for _, ix := range s.Indexes {
		if err := ix.Ensure(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// OpenCorpusDeferred is OpenCorpus without the member loads: it validates
// the header, offset table and corpus tables in O(members), and returns
// shell members that parse and validate themselves on first use.
func OpenCorpusDeferred(data []byte) (*CorpusSnapshot, error) {
	return openCorpus(data, nil)
}

// OpenCorpusMapping opens a deferred corpus over a file mapping: the O(open)
// mmap path. Member bytes fault in per page as queries touch them; the
// returned snapshot holds the mapping (Mapping accessor) but does not close
// it — the owner (the collection layer's Corpus.Close) does.
func OpenCorpusMapping(m *Mapping) (*CorpusSnapshot, error) {
	data, err := m.Bytes()
	if err != nil {
		return nil, err
	}
	s, err := openCorpus(data, m)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func openCorpus(data []byte, mp *Mapping) (*CorpusSnapshot, error) {
	r := &snapReader{data: data}
	head, err := r.take(8)
	if err != nil {
		return nil, fmt.Errorf("xmlstore: snapshot header: %w", err)
	}
	if string(head[:4]) != snapshotMagic {
		return nil, fmt.Errorf("xmlstore: not a snapshot file")
	}
	if head[4] != snapshotVersion {
		return nil, fmt.Errorf("xmlstore: unsupported snapshot version %d (this build reads version %d)", head[4], snapshotVersion)
	}
	nMembers, err := r.u32()
	if err != nil {
		return nil, err
	}
	nNames, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int64(nMembers)+1 > int64(r.remaining())/8 {
		return nil, fmt.Errorf("xmlstore: snapshot truncated: offset table of %d members", nMembers)
	}
	offb, err := r.take((int(nMembers) + 1) * 8)
	if err != nil {
		return nil, err
	}
	memberOff := make([]int64, int(nMembers)+1)
	for i := range memberOff {
		v := binary.LittleEndian.Uint64(offb[i*8:])
		if v > uint64(len(data)) || v&7 != 0 || (i > 0 && int64(v) < memberOff[i-1]) {
			return nil, fmt.Errorf("xmlstore: snapshot member offset table corrupt (entry %d = %d)", i, v)
		}
		memberOff[i] = int64(v)
	}
	// The offset table's end entry pins the file length: a shrunk or
	// truncated file fails here, at open, instead of faulting mid-query.
	if memberOff[len(memberOff)-1] != int64(len(data)) {
		return nil, fmt.Errorf("xmlstore: snapshot is %d bytes but its offset table ends at %d (truncated?)", len(data), memberOff[len(memberOff)-1])
	}
	s := &CorpusSnapshot{mapping: mp}
	if s.URIs, err = r.stringTable(int(nMembers)); err != nil {
		return nil, err
	}
	if s.Names, err = r.stringTable(int(nNames)); err != nil {
		return nil, err
	}
	cells := int64(nNames) * int64(nMembers)
	if cells > int64(r.remaining())/4 {
		return nil, fmt.Errorf("xmlstore: snapshot truncated: name table of %d cells", cells)
	}
	flat, err := r.i32s(int(cells))
	if err != nil {
		return nil, err
	}
	if len(flat) > 0 {
		s.NameSyms = unsafe.Slice((*xdm.Sym)(unsafe.Pointer(&flat[0])), len(flat))
	}
	if err := r.align8(); err != nil {
		return nil, err
	}
	if int64(r.off) != memberOff[0] {
		return nil, fmt.Errorf("xmlstore: snapshot corpus tables end at %d but the first member starts at %d", r.off, memberOff[0])
	}
	s.Indexes = make([]*Index, int(nMembers))
	for m := range s.Indexes {
		lm := &lazyMember{
			data:     data[memberOff[m]:memberOff[m+1]:memberOff[m+1]],
			m:        mp,
			off:      memberOff[m],
			member:   m,
			names:    s.Names,
			nameSyms: s.NameSyms,
			stride:   int(nMembers),
		}
		ix := &Index{lazy: lm}
		ix.Tree = xdm.NewShellTree(ix.Ensure)
		s.Indexes[m] = ix
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Single-document entry points (one-member corpora)

// WriteSnapshot serializes a single document with its index: a one-member
// corpus snapshot with an empty corpus name table.
func WriteSnapshot(w io.Writer, ix *Index) error {
	return WriteCorpus(w, &CorpusSnapshot{URIs: []string{""}, Indexes: []*Index{ix}})
}

// ReadSnapshot deserializes a single-document snapshot written by
// WriteSnapshot, returning the member's ready index (no region or index
// rebuild). The reader's bytes are consumed into a private buffer.
func ReadSnapshot(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmlstore: %w", err)
	}
	s, err := OpenCorpus(data)
	if err != nil {
		return nil, err
	}
	if len(s.Indexes) != 1 {
		return nil, fmt.Errorf("xmlstore: snapshot holds %d members; use OpenCorpus for corpora", len(s.Indexes))
	}
	return s.Indexes[0], nil
}
