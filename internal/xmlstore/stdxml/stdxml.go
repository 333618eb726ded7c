// Package stdxml is the encoding/xml reference parser: the slow,
// well-understood path the xmlstore fast scanner is differentially tested
// against. It lives apart from xmlstore so production binaries, which only
// ever call the scanner, do not link encoding/xml.
package stdxml

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"xqtp/internal/xdm"
)

// ParseStd reads an XML document from r through encoding/xml and builds the
// tree via xdm.Finalize — the slow, well-understood reference path. The
// fast scanner must produce a bit-identical tree (nodes, symbols, columns)
// for every input this function accepts; the differential and fuzz suites
// in xmlstore enforce that. Production callers use xmlstore.Parse or
// xmlstore.Ingest.
func ParseStd(r io.Reader) (*xdm.Tree, error) {
	dec := xml.NewDecoder(r)
	var stack []*xdm.Node
	var root *xdm.Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlstore: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := xdm.NewElement(t.Name.Local)
			for _, a := range t.Attr {
				// Namespace declarations carry no attribute node: xmlns="..."
				// and xmlns:p="..." are dropped. An attribute whose *prefix*
				// resolves to the xmlns space covers both spellings; a plain
				// local name that merely ends in "xmlns" (e.g. p:xmlns) is a
				// real attribute and must be kept.
				if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
					continue
				}
				el.SetAttr(a.Name.Local, a.Value)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmlstore: multiple root elements")
				}
				root = el
			} else {
				stack[len(stack)-1].AppendChild(el)
			}
			stack = append(stack, el)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmlstore: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			text := string(t)
			if strings.TrimSpace(text) == "" {
				continue
			}
			stack[len(stack)-1].AppendChild(xdm.NewText(text))
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmlstore: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmlstore: unexpected end of input inside <%s>", stack[len(stack)-1].Name)
	}
	return xdm.Finalize(root), nil
}

// ParseStdString parses a document held in a string through the reference
// path.
func ParseStdString(s string) (*xdm.Tree, error) { return ParseStd(strings.NewReader(s)) }
