package collection

import (
	"io"

	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// WriteSnapshot serializes the corpus in the columnar snapshot format:
// every member's region columns, symbol table and rank streams, plus the
// corpus name table, in corpus order. Loading the result (OpenSnapshot)
// rebuilds none of them.
func (c *Corpus) WriteSnapshot(w io.Writer) error {
	if err := c.closedErr(); err != nil {
		return err
	}
	uris := make([]string, len(c.docs))
	ixs := make([]*xmlstore.Index, len(c.docs))
	for i, d := range c.docs {
		uris[i] = d.URI
		ixs[i] = d.Index
	}
	names := c.names.Names()
	cells := make([]xdm.Sym, len(names)*len(c.docs))
	for i, name := range names {
		col := c.names.byName[name]
		copy(cells[i*len(c.docs):], col)
	}
	return xmlstore.WriteCorpus(w, &xmlstore.CorpusSnapshot{
		URIs:     uris,
		Indexes:  ixs,
		Names:    names,
		NameSyms: cells,
	})
}

// OpenSnapshot deserializes a corpus written by WriteSnapshot. It takes
// ownership of data: the members' strings, columns and streams alias the
// buffer, so the caller must not modify it afterwards. The members get a
// fresh contiguous tree-ID block in stored order, re-establishing the
// corpus-order invariant exactly as parallel ingest does; the name table
// comes from the snapshot, so no member symbol table is re-walked.
func OpenSnapshot(data []byte) (*Corpus, error) {
	s, err := xmlstore.OpenCorpus(data)
	if err != nil {
		return nil, err
	}
	return fromSnapshot(s)
}

// OpenSnapshotFile maps the snapshot file and opens it deferred: the O(open)
// path. Only the header, offset table and corpus tables are read; member
// pages fault in as queries touch them, so a corpus larger than RAM stays
// queryable. The corpus owns the mapping — Close releases it.
func OpenSnapshotFile(path string) (*Corpus, error) {
	m, err := xmlstore.MapFile(path)
	if err != nil {
		return nil, err
	}
	s, err := xmlstore.OpenCorpusMapping(m)
	if err != nil {
		m.Close()
		return nil, err
	}
	c, err := fromSnapshot(s)
	if err != nil {
		m.Close()
		return nil, err
	}
	c.mapping = m
	return c, nil
}

func fromSnapshot(s *xmlstore.CorpusSnapshot) (*Corpus, error) {
	docs := make([]*Doc, len(s.Indexes))
	for i, ix := range s.Indexes {
		docs[i] = &Doc{URI: s.URIs[i], Index: ix}
	}
	xdm.AssignTreeIDs(trees(docs))
	return assembleWith(docs, nameTableFromSnapshot(s))
}

// nameTableFromSnapshot decodes the flat row-major name-table cells back
// into the per-name column map.
func nameTableFromSnapshot(s *xmlstore.CorpusSnapshot) *NameTable {
	nt := &NameTable{
		byName: make(map[string][]xdm.Sym, len(s.Names)),
		ndocs:  len(s.Indexes),
	}
	for i, name := range s.Names {
		col := make([]xdm.Sym, nt.ndocs)
		copy(col, s.NameSyms[i*nt.ndocs:(i+1)*nt.ndocs])
		nt.byName[name] = col
	}
	return nt
}
