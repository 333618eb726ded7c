package xmlstore

// Low-level primitives of the zero-copy XML scanner: name scanning, the
// namespace name-splitting rule of encoding/xml, and character-data decoding
// (predefined entities, numeric character references, newline
// normalization). The fused tree construction lives in ingest.go;
// stdxml.ParseStd remains the encoding/xml reference oracle the scanner is
// differentially tested against.

import (
	"bytes"
	"fmt"
	"unicode/utf8"
	"unsafe"
)

// byteString returns a string aliasing b without copying. Callers must
// guarantee that b is never modified afterwards — the ingest entry points
// take ownership of their input buffer for exactly this reason.
func byteString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// stringBytes returns a []byte aliasing s. The scanner never writes through
// it.
func stringBytes(s string) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// nameDelim marks the bytes that terminate a tag or attribute name.
var nameDelim [256]bool

func init() {
	for _, c := range []byte{' ', '\t', '\n', '\r', '/', '>', '=', '<', '"', '\''} {
		nameDelim[c] = true
	}
}

// scanName returns the end offset of the name starting at i. The scanner is
// non-validating: any run of non-delimiter bytes is a name; inputs that
// encoding/xml would reject for bad name characters simply parse leniently.
func scanName(data []byte, i int) int {
	for i < len(data) && !nameDelim[data[i]] {
		i++
	}
	return i
}

// skipWS returns the first offset at or after i holding a non-whitespace
// byte.
func skipWS(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// splitName applies the name-splitting rule of encoding/xml: a name splits
// into (prefix, local) only at a single interior colon; names with a
// leading, trailing, or repeated colon stay whole (prefix empty).
func splitName(name []byte) (prefix, local []byte) {
	i := bytes.IndexByte(name, ':')
	if i <= 0 || i == len(name)-1 || bytes.IndexByte(name[i+1:], ':') >= 0 {
		return nil, name
	}
	return name[:i], name[i+1:]
}

// isNSDecl reports whether an attribute name declares a namespace — a
// literal xmlns or an xmlns: prefix that actually splits — matching the
// attributes ParseStd drops.
func isNSDecl(name []byte) bool {
	if string(name) == "xmlns" {
		return true
	}
	prefix, _ := splitName(name)
	return string(prefix) == "xmlns"
}

// decodeEntity decodes the entity or character reference starting at b[0]
// (which is '&'), returning the rune and the number of input bytes
// consumed. Only the five predefined entities and numeric character
// references are supported, like a non-validating parser without a DTD.
func decodeEntity(b []byte) (rune, int, error) {
	// An entity reference is short (longest legal forms are numeric
	// references padded with leading zeros); bound the semicolon scan so a
	// stray '&' in front of megabytes of text fails fast.
	limit := len(b)
	if limit > 70 {
		limit = 70
	}
	semi := -1
	for j := 1; j < limit; j++ {
		if b[j] == ';' {
			semi = j
			break
		}
	}
	if semi < 0 {
		return 0, 0, fmt.Errorf("xmlstore: invalid character entity (no semicolon)")
	}
	ent := b[1:semi]
	if len(ent) > 1 && ent[0] == '#' {
		digits := ent[1:]
		base := rune(10)
		if digits[0] == 'x' {
			base = 16
			digits = digits[1:]
		}
		if len(digits) == 0 {
			return 0, 0, fmt.Errorf("xmlstore: invalid character entity &%s;", ent)
		}
		var n rune
		for _, d := range digits {
			var v rune
			switch {
			case d >= '0' && d <= '9':
				v = rune(d - '0')
			case base == 16 && d >= 'a' && d <= 'f':
				v = rune(d-'a') + 10
			case base == 16 && d >= 'A' && d <= 'F':
				v = rune(d-'A') + 10
			default:
				return 0, 0, fmt.Errorf("xmlstore: invalid character entity &%s;", ent)
			}
			n = n*base + v
			if n > utf8.MaxRune {
				return 0, 0, fmt.Errorf("xmlstore: invalid character entity &%s;", ent)
			}
		}
		// Surrogate code points encode as U+FFFD, matching string(rune(n)).
		return n, semi + 1, nil
	}
	switch string(ent) {
	case "lt":
		return '<', semi + 1, nil
	case "gt":
		return '>', semi + 1, nil
	case "amp":
		return '&', semi + 1, nil
	case "apos":
		return '\'', semi + 1, nil
	case "quot":
		return '"', semi + 1, nil
	}
	return 0, 0, fmt.Errorf("xmlstore: invalid character entity &%s;", ent)
}
