package main

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"xqtp"
)

// expected is the checked answer to one query request, computed at set-up
// by the NestedLoop oracle and rendered in the request's wire format.
// segs[0] holds the items of the corpus as loaded; segs[i] the items extend
// batch i appends (a root-bound or fn:collection() query over a corpus that
// only grows at its end answers with base items followed by each batch's).
type expected struct {
	format string
	status string // summary status: ok or limit-reached
	segs   [][]byte
	rows   []int64
}

// rowsAt is the row count after extend batches 1..epoch.
func (e *expected) rowsAt(epoch int) int64 {
	var n int64
	for _, r := range e.rows[:epoch+1] {
		n += r
	}
	return n
}

// oracle evaluates query over c with the NestedLoop kernel under the same
// row budget the server applies, and renders the items as the server's
// stream does.
func oracle(c *xqtp.Corpus, query, format string, limit int64) (items []byte, rows int64, status string, err error) {
	q, err := xqtp.Prepare(query)
	if err != nil {
		return nil, 0, "", err
	}
	seq, _, err := c.RunWith(context.Background(), q, xqtp.NestedLoop, xqtp.RunOptions{Workers: 1, MaxRows: limit})
	status = "ok"
	if errors.Is(err, xqtp.ErrBudgetExceeded) {
		status, err = "limit-reached", nil
	}
	if err != nil {
		return nil, 0, "", fmt.Errorf("oracle %q: %w", query, err)
	}
	for _, it := range seq {
		items = appendItem(items, format, c, it)
	}
	return items, int64(len(seq)), status, nil
}

// wireItem is one NDJSON result line of POST /query.
type wireItem struct {
	URI   string `json:"uri,omitempty"`
	Value string `json:"value"`
}

// appendItem renders one result item in the wire format of POST /query:
// an NDJSON {"uri","value"} line, or an <item uri=".."> element whose
// content is the serialized node or the escaped atomic value.
func appendItem(dst []byte, format string, c *xqtp.Corpus, it xqtp.Item) []byte {
	uri, _ := c.URIOf(it)
	if format == "xml" {
		dst = append(dst, "<item"...)
		if uri != "" {
			dst = append(dst, ` uri="`...)
			dst = appendXMLEscaped(dst, uri)
			dst = append(dst, '"')
		}
		dst = append(dst, '>')
		if _, isNode := it.(*xqtp.Node); isNode {
			dst = append(dst, xqtp.SerializeItem(it)...)
		} else {
			dst = appendXMLEscaped(dst, xqtp.ItemString(it))
		}
		return append(dst, "</item>\n"...)
	}
	line, err := json.Marshal(wireItem{URI: uri, Value: xqtp.SerializeItem(it)})
	if err != nil {
		panic(err) // a struct of two strings always marshals
	}
	return append(append(dst, line...), '\n')
}

func appendXMLEscaped(dst []byte, s string) []byte {
	for _, r := range s {
		switch r {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '"':
			dst = append(dst, "&quot;"...)
		case '\'':
			dst = append(dst, "&apos;"...)
		default:
			dst = append(dst, string(r)...)
		}
	}
	return dst
}

// summary is the terminal object of a query response.
type summary struct {
	Status    string  `json:"status" xml:"status,attr"`
	Rows      int64   `json:"rows" xml:"rows,attr"`
	ElapsedMs float64 `json:"elapsed_ms"` // NDJSON only; -1 when absent
}

// splitBody separates a query response body into its item bytes and its
// summary.
func splitBody(format string, body []byte) ([]byte, summary, error) {
	var sum summary
	if format == "xml" {
		const open, end = "<results>\n", "/>\n</results>\n"
		if !bytes.HasPrefix(body, []byte(open)) || !bytes.HasSuffix(body, []byte(end)) {
			return nil, sum, errors.New("xml body is not <results>…</results>")
		}
		i := bytes.LastIndex(body, []byte("<summary "))
		if i < len(open) {
			return nil, sum, errors.New("xml body has no <summary/>")
		}
		if err := xml.Unmarshal(body[i:len(body)-len(end)+2], &sum); err != nil {
			return nil, sum, fmt.Errorf("xml summary: %w", err)
		}
		sum.ElapsedMs = -1
		return body[len(open):i], sum, nil
	}
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return nil, sum, errors.New("ndjson body does not end in a newline")
	}
	i := bytes.LastIndexByte(body[:len(body)-1], '\n') + 1
	var line struct {
		Summary *summary `json:"summary"`
	}
	if err := json.Unmarshal(body[i:], &line); err != nil || line.Summary == nil {
		return nil, sum, fmt.Errorf("ndjson summary line %.200q", body[i:])
	}
	return body[:i], *line.Summary, nil
}

// check verifies a query response against the oracle for any corpus epoch
// in [lo, hi] — the epochs a read could observe when an extend ran
// alongside it. The byte comparison is the fast path; a semantic comparison
// of the decoded items decides when the bytes differ, so an encoding change
// that keeps the items is not a failure.
func (e *expected) check(resp *response, lo, hi int) (summary, error) {
	if resp.status != 200 {
		return summary{}, fmt.Errorf("HTTP %d: %.200s", resp.status, resp.body)
	}
	items, sum, err := splitBody(e.format, resp.body)
	if err != nil {
		return sum, err
	}
	if hi >= len(e.segs) {
		hi = len(e.segs) - 1
	}
	if lo > hi {
		lo = hi
	}
	for ep := lo; ep <= hi; ep++ {
		if sum.Status == e.status && sum.Rows == e.rowsAt(ep) && hasSegs(items, e.segs[:ep+1]) {
			return sum, nil
		}
	}
	for ep := lo; ep <= hi; ep++ {
		if sum.Status == e.status && sum.Rows == e.rowsAt(ep) && sameItems(e.format, items, bytes.Join(e.segs[:ep+1], nil)) {
			return sum, nil
		}
	}
	return sum, fmt.Errorf("result mismatch: got status %s, %d rows; want %s, %d rows (epochs %d..%d)",
		sum.Status, sum.Rows, e.status, e.rowsAt(hi), lo, hi)
}

// hasSegs reports whether b is exactly the concatenation of segs.
func hasSegs(b []byte, segs [][]byte) bool {
	for _, s := range segs {
		if !bytes.HasPrefix(b, s) {
			return false
		}
		b = b[len(s):]
	}
	return len(b) == 0
}

// sameItems compares two item streams by content: decoded NDJSON fields, or
// the XML token sequence.
func sameItems(format string, got, want []byte) bool {
	g, err1 := canonical(format, got)
	w, err2 := canonical(format, want)
	return err1 == nil && err2 == nil && g == w
}

func canonical(format string, b []byte) (string, error) {
	var out strings.Builder
	if format != "xml" {
		for _, line := range bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var it wireItem
			if err := json.Unmarshal(line, &it); err != nil {
				return "", err
			}
			fmt.Fprintf(&out, "%q %q\n", it.URI, it.Value)
		}
		return out.String(), nil
	}
	d := xml.NewDecoder(io.MultiReader(strings.NewReader("<r>"), bytes.NewReader(b), strings.NewReader("</r>")))
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return out.String(), nil
		}
		if err != nil {
			return "", err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			fmt.Fprintf(&out, "<%s", t.Name.Local)
			for _, a := range t.Attr {
				fmt.Fprintf(&out, " %s=%q", a.Name.Local, a.Value)
			}
			out.WriteString(">")
		case xml.EndElement:
			fmt.Fprintf(&out, "</%s>", t.Name.Local)
		case xml.CharData:
			out.WriteString(strings.TrimSpace(string(t)))
		}
	}
}

// corrupt deliberately alters one character of the item value, so a
// correct server response must be reported as a mismatch. It returns false
// when the expected result has no item to alter.
func (e *expected) corrupt() bool {
	s := e.segs[0]
	marker := []byte(`"value":"`)
	if e.format == "xml" {
		marker = []byte("<item")
	}
	i := bytes.Index(s, marker)
	if i < 0 {
		return false
	}
	i += len(marker)
	if e.format == "xml" {
		i += bytes.IndexByte(s[i:], '>') + 1
	}
	c := append([]byte(nil), s...)
	if c[i] == 'x' {
		c[i] = 'y'
	} else {
		c[i] = 'x'
	}
	e.segs[0] = c
	return true
}
