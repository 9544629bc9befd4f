// Package jsonwrite is an append encoder for hand-written JSON writers of
// fixed document shapes: the graph and the cost snapshot. A writer appends
// a document piece by piece into one small buffer that it flushes to the
// underlying io.Writer as it fills, so writing a document of any size
// allocates O(1). The pieces format exactly as encoding/json formats them
// (HTML-escaped strings, its float notation), so a writer built on them can
// reproduce an encoding/json document byte for byte; each such writer keeps
// its encoding/json original in its package's tests as the oracle.
package jsonwrite

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// flushAt is the buffered size past which Writer hands its bytes to the
// underlying writer.
const flushAt = 16 << 10

// Writer appends a document into buf and flushes it to w in flushAt-sized
// chunks. The first write error sticks and ends output.
type Writer struct {
	w   io.Writer
	buf []byte
	err error
}

// New returns a Writer flushing to w.
func New(w io.Writer) Writer {
	return Writer{w: w, buf: make([]byte, 0, flushAt+1024)}
}

// Raw appends s verbatim and flushes the buffer once it passes flushAt.
// Every other method only appends, so a document that calls Raw between
// values never buffers much more than flushAt.
func (e *Writer) Raw(s string) {
	e.buf = append(e.buf, s...)
	if len(e.buf) >= flushAt {
		e.Flush()
	}
}

// Flush writes the buffered bytes and returns the first write error.
func (e *Writer) Flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

// String appends s as a JSON string literal. Printable ASCII other than the
// characters encoding/json escapes is copied as is; anything else — quotes,
// backslashes, <>&, control bytes, non-ASCII — is rare in the names these
// documents carry and is delegated to json.Marshal so the escaping rules
// stay encoding/json's.
func (e *Writer) String(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.buf = append(e.buf, q...)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// Int appends v in decimal.
func (e *Writer) Int(v int64) {
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

// Float appends f the way encoding/json writes a float64: the shortest
// representation that round-trips, in e-notation below 1e-6 and from 1e21
// in magnitude, with a one-digit negative exponent written without its
// leading zero. f must be finite (see Finite); encoding/json refuses NaN
// and infinities.
func (e *Writer) Float(f float64) {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		n := len(e.buf)
		if n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

// Finite returns nil when every value is a finite float, else the error
// encoding/json returns for the first that is not. Writers check their
// floats with it before writing anything, so a refused document leaves w
// untouched, as encoding/json's Encoder does.
func Finite(values ...float64) error {
	for _, f := range values {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
	}
	return nil
}
