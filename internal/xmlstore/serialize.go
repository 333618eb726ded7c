// Package xmlstore loads XML documents into the XDM and maintains the index
// structures (per-tag and per-attribute streams sorted by preorder rank)
// that the set-at-a-time tree-pattern algorithms scan. The serving entry
// points (Parse, Ingest, in ingest.go) run a fused zero-copy scanner. Its
// encoding/xml reference oracle, ParseStd, lives in the stdxml subpackage,
// which only the differential tests and the ingest benchmark import.
package xmlstore

import (
	"io"

	"xqtp/internal/xdm"
)

// AppendXML appends the XML serialization of the subtree rooted at n to dst
// and returns the extended slice. The output round-trips through both Parse
// and stdxml.ParseStd: text escapes &, <, > and carriage returns (which
// parsers would otherwise normalize to \n); attribute values additionally
// escape quotes, tabs, and newlines numerically.
func AppendXML(dst []byte, n *xdm.Node) []byte {
	switch n.Kind {
	case xdm.DocumentNode:
		for _, c := range n.Children {
			dst = AppendXML(dst, c)
		}
		return dst
	case xdm.TextNode:
		return appendEscaped(dst, n.Text, false)
	case xdm.AttributeNode:
		dst = append(dst, n.Name...)
		dst = append(dst, '=', '"')
		dst = appendEscaped(dst, n.Text, true)
		return append(dst, '"')
	}
	dst = append(dst, '<')
	dst = append(dst, n.Name...)
	for _, a := range n.Attrs {
		dst = append(dst, ' ')
		dst = AppendXML(dst, a)
	}
	if len(n.Children) == 0 {
		return append(dst, '/', '>')
	}
	dst = append(dst, '>')
	for _, c := range n.Children {
		dst = AppendXML(dst, c)
	}
	dst = append(dst, '<', '/')
	dst = append(dst, n.Name...)
	return append(dst, '>')
}

// appendEscaped appends s with XML escaping. Attribute mode also escapes
// the delimiter quote and whitespace that attribute-value normalization
// would fold.
func appendEscaped(dst []byte, s string, attr bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '\r':
			dst = append(dst, "&#xD;"...)
		case '"':
			if attr {
				dst = append(dst, "&quot;"...)
			} else {
				dst = append(dst, c)
			}
		case '\n':
			if attr {
				dst = append(dst, "&#xA;"...)
			} else {
				dst = append(dst, c)
			}
		case '\t':
			if attr {
				dst = append(dst, "&#x9;"...)
			} else {
				dst = append(dst, c)
			}
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// Serialize writes the subtree rooted at n as XML to w, streaming through a
// fixed-size buffer instead of materializing the whole serialization. The
// document generators stream through it into an IngestWriter, so generated
// documents reach the scanner without an intermediate full-document string.
func Serialize(w io.Writer, n *xdm.Node) error {
	x := &xmlWriter{w: w, buf: make([]byte, 0, serializeBufSize)}
	x.emit(n)
	x.flush()
	return x.err
}

const serializeBufSize = 32 << 10

type xmlWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (x *xmlWriter) flush() {
	if len(x.buf) > 0 && x.err == nil {
		_, x.err = x.w.Write(x.buf)
	}
	x.buf = x.buf[:0]
}

func (x *xmlWriter) emit(n *xdm.Node) {
	if x.err != nil {
		return
	}
	switch n.Kind {
	case xdm.DocumentNode:
		for _, c := range n.Children {
			x.emit(c)
		}
		return
	case xdm.TextNode, xdm.AttributeNode:
		x.buf = AppendXML(x.buf, n)
	default:
		x.buf = append(x.buf, '<')
		x.buf = append(x.buf, n.Name...)
		for _, a := range n.Attrs {
			x.buf = append(x.buf, ' ')
			x.buf = AppendXML(x.buf, a)
		}
		if len(n.Children) == 0 {
			x.buf = append(x.buf, '/', '>')
		} else {
			x.buf = append(x.buf, '>')
			for _, c := range n.Children {
				x.emit(c)
			}
			x.buf = append(x.buf, '<', '/')
			x.buf = append(x.buf, n.Name...)
			x.buf = append(x.buf, '>')
		}
	}
	if len(x.buf) >= serializeBufSize {
		x.flush()
	}
}

// SerializeString renders the subtree rooted at n as an XML string.
func SerializeString(n *xdm.Node) string {
	return string(AppendXML(nil, n))
}
