// Package jsonread is a byte-cursor JSON reader for hand-written decoders
// of fixed document shapes: the graph, the cost snapshot and the service's
// request envelope. Decoding a struct with it field by field accepts
// exactly the inputs encoding/json's Decoder accepts for the first value of
// a stream, and yields the same values:
//
//   - syntax is strict JSON, nested at most 10000 deep, and whatever
//     follows the first value is never read;
//   - keys select fields exactly, else under Unicode case folding (Field);
//   - a repeated key decodes again into what the earlier one left, so the
//     last value wins and a repeated array decodes into the earlier
//     elements (Slice);
//   - null leaves a string, number or struct unchanged and sets a slice to
//     nil;
//   - integers reject fractions, exponents and out-of-range values;
//   - invalid UTF-8 and unpaired surrogate escapes read as U+FFFD.
//
// Each decoder's encoding/json original is kept in its package's tests as
// the oracle a differential fuzz target compares it with.
//
// The first error sticks: every later read is a no-op, and Err reports it.
package jsonread

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// errEOF marks input that ends inside a value.
var errEOF = errors.New("unexpected end of JSON input")

// Reader is a cursor over one JSON document.
type Reader struct {
	data  []byte
	pos   int
	depth int
	err   error
}

// New returns a Reader positioned at the start of data.
func New(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first error the reader met, or nil.
func (r *Reader) Err() error { return r.err }

// fail records an error at the cursor unless one is recorded already.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("offset %d: %s", r.pos, fmt.Sprintf(format, args...))
	}
}

// Unknown records that key names no field of the document.
func (r *Reader) Unknown(key []byte) { r.fail("unknown field %q", key) }

// ReadAll reads r to EOF into one buffer, sized up front when r reports its
// unread length (bytes.Reader, strings.Reader). A *bytes.Buffer's unread
// bytes are taken as they are, without a copy, and the buffer is drained;
// the slice aliases the buffer's storage, so a decoder reading it must not
// keep it, or any sub-slice of it, once it returns.
func ReadAll(r io.Reader) ([]byte, error) {
	if b, ok := r.(*bytes.Buffer); ok {
		return b.Next(b.Len()), nil
	}
	if l, ok := r.(interface{ Len() int }); ok {
		buf := make([]byte, l.Len())
		n, err := io.ReadFull(r, buf)
		if err != nil {
			return nil, err
		}
		return buf[:n], nil
	}
	return io.ReadAll(r)
}

// Field returns the name in names that key selects, the way encoding/json
// matches struct fields: an exact match, else the name equal to key under
// Unicode case folding. It returns "" when none does. The names must be
// distinct under folding.
func Field(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// Settled reports whether prefix, the start of a longer input, already
// decides what encoding/json's Decoder makes of it: the first value ends
// inside prefix, or prefix holds a syntax error. A Decoder knows an object
// or array has ended at its closing bracket, but any other value only at
// the byte after it.
func Settled(prefix []byte) bool {
	r := New(prefix)
	r.Skip()
	if r.err != nil {
		return !errors.Is(r.err, errEOF)
	}
	last := prefix[r.pos-1]
	return last == '}' || last == ']' || r.pos < len(prefix)
}

// Object reads an object, calling field with each member's unescaped key
// and the cursor on the member's value, which field must read or skip. key
// is valid only during the call. A null reads as nothing, as encoding/json
// leaves a struct unchanged; any other value is an error.
func (r *Reader) Object(field func(key []byte)) {
	if r.null() || !r.open('{', "object") {
		return
	}
	if r.next() == '}' {
		r.close()
		return
	}
	for {
		if r.next() != '"' {
			r.unexpected("looking for beginning of object key string")
			return
		}
		key := r.str()
		if r.err != nil {
			return
		}
		if r.next() != ':' {
			r.unexpected("after object key")
			return
		}
		r.pos++
		field(key)
		if r.err != nil {
			return
		}
		switch r.next() {
		case ',':
			r.pos++
		case '}':
			r.close()
			return
		default:
			r.unexpected("after object key:value pair")
			return
		}
	}
}

// Slice reads an array into *s the way encoding/json decodes into a slice:
// null sets *s to nil and [] to an empty slice; otherwise elem decodes
// element i into (*s)[i], which still holds whatever an earlier decode of
// the same slice left there, and *s is cut to the elements read.
func Slice[T any](r *Reader, s *[]T, elem func(*T)) {
	if r.null() {
		*s = nil
		return
	}
	i := 0
	r.array(func() {
		if i < cap(*s) {
			*s = (*s)[:i+1]
		} else {
			var zero T
			*s = append((*s)[:i], zero)
		}
		elem(&(*s)[i])
		i++
	})
	if r.err != nil {
		return
	}
	if i == 0 {
		*s = []T{}
		return
	}
	*s = (*s)[:i]
}

// String reads a string into *s. A null leaves *s unchanged.
func (r *Reader) String(s *string) {
	if r.null() {
		return
	}
	if r.next() != '"' {
		r.mismatch("string")
		return
	}
	if b := r.str(); r.err == nil {
		*s = string(b)
	}
}

// Int64 reads an integer into *v. A null leaves *v unchanged; a fraction,
// an exponent or a value outside int64 is an error.
func (r *Reader) Int64(v *int64) {
	if r.null() {
		return
	}
	tok := r.numberOf("integer")
	if r.err != nil {
		return
	}
	n, ok := parseInt(tok)
	if !ok {
		r.fail("number %s does not fit an integer field", tok)
		return
	}
	*v = n
}

// Int reads an integer into *v, as Int64 does.
func (r *Reader) Int(v *int) {
	n := int64(*v)
	r.Int64(&n)
	if r.err == nil && int64(int(n)) != n {
		r.fail("number %d overflows int", n)
	}
	if r.err == nil {
		*v = int(n)
	}
}

// Float64 reads a number into *v. A null leaves *v unchanged; a value
// outside float64's range is an error.
func (r *Reader) Float64(v *float64) {
	if r.null() {
		return
	}
	tok := r.numberOf("number")
	if r.err != nil {
		return
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.fail("number %s does not fit a float64 field", tok)
		return
	}
	*v = f
}

// Raw reads any value and returns its bytes as a sub-slice of the input,
// what a json.RawMessage field keeps (a null included).
func (r *Reader) Raw() []byte {
	if r.err != nil {
		return nil
	}
	r.next()
	start := r.pos
	r.Skip()
	if r.err != nil {
		return nil
	}
	return r.data[start:r.pos]
}

// Skip reads and validates any value, keeping nothing.
func (r *Reader) Skip() {
	if r.err != nil {
		return
	}
	switch c := r.next(); {
	case c == '{':
		r.Object(func([]byte) { r.Skip() })
	case c == '[':
		r.array(r.Skip)
	case c == '"':
		r.str()
	case c == '-' || '0' <= c && c <= '9':
		r.number()
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	default:
		r.unexpected("looking for beginning of value")
	}
}

// null consumes a null if one comes next, and reports whether it did. After
// an error it reports true, so a caller that skips its value on a null
// reads nothing more.
func (r *Reader) null() bool {
	if r.err != nil {
		return true
	}
	if r.next() != 'n' {
		return false
	}
	r.literal("null")
	return true
}

// array reads an array, calling elem with the cursor on each element.
func (r *Reader) array(elem func()) {
	if !r.open('[', "array") {
		return
	}
	if r.next() == ']' {
		r.close()
		return
	}
	for {
		elem()
		if r.err != nil {
			return
		}
		switch r.next() {
		case ',':
			r.pos++
		case ']':
			r.close()
			return
		default:
			r.unexpected("after array element")
			return
		}
	}
}

// open consumes the bracket that opens a container of the given kind.
func (r *Reader) open(bracket byte, kind string) bool {
	if r.err != nil {
		return false
	}
	if r.next() != bracket {
		r.mismatch(kind)
		return false
	}
	r.pos++
	if r.depth++; r.depth > maxDepth {
		r.fail("exceeded max depth")
		return false
	}
	return true
}

// close consumes the bracket that closes a container.
func (r *Reader) close() {
	r.pos++
	r.depth--
}

// next skips whitespace and returns the byte at the cursor, 0 at the end.
func (r *Reader) next() byte {
	for ; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eof records that the input ended inside a value.
func (r *Reader) eof() {
	if r.err == nil {
		r.err = fmt.Errorf("offset %d: %w", r.pos, errEOF)
	}
}

// unexpected records a syntax error at the cursor's byte.
func (r *Reader) unexpected(context string) {
	if r.pos >= len(r.data) {
		r.eof()
		return
	}
	r.fail("invalid character %q %s", r.data[r.pos], context)
}

// mismatch records that the value at the cursor is not of the kind the
// field holds.
func (r *Reader) mismatch(kind string) {
	if c := r.next(); strings.IndexByte(`{["-0123456789tf`, c) >= 0 {
		r.fail("cannot decode a value starting with %q into %s", c, kind)
		return
	}
	r.unexpected("looking for beginning of value")
}

// literal consumes the literal lit (true, false or null).
func (r *Reader) literal(lit string) {
	for i := 0; i < len(lit); i++ {
		if r.pos >= len(r.data) {
			r.eof()
			return
		}
		if r.data[r.pos] != lit[i] {
			r.unexpected("in literal " + lit)
			return
		}
		r.pos++
	}
}

// numberOf consumes a number for a field of the given kind.
func (r *Reader) numberOf(kind string) []byte {
	if c := r.next(); c != '-' && (c < '0' || c > '9') {
		r.mismatch(kind)
		return nil
	}
	return r.number()
}

// number consumes a number literal and returns its bytes.
func (r *Reader) number() []byte {
	d, start := r.data, r.pos
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		r.pos = i
		r.unexpected("in numeric literal")
		return nil
	}
	if i < len(d) && d[i] == '.' {
		i++
		if j := digits(d, i); j > i {
			i = j
		} else {
			r.pos = i
			r.unexpected("after decimal point in numeric literal")
			return nil
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j := digits(d, i); j > i {
			i = j
		} else {
			r.pos = i
			r.unexpected("in exponent of numeric literal")
			return nil
		}
	}
	r.pos = i
	return d[start:i]
}

// digits returns the index after the run of digits starting at d[i].
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// parseInt parses a number token as a base-10 int64, failing on a
// fraction, an exponent or overflow. Tokens of up to 18 digits cannot
// overflow and skip strconv.
func parseInt(tok []byte) (int64, bool) {
	neg := tok[0] == '-'
	ds := tok
	if neg {
		ds = tok[1:]
	}
	if len(ds) > 18 {
		n, err := strconv.ParseInt(string(tok), 10, 64)
		return n, err == nil
	}
	var n int64
	for _, c := range ds {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// plain marks the bytes a string literal holds as themselves: printable
// ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str consumes the string literal at the cursor and returns its unescaped
// bytes: a sub-slice of the input when the literal is plain ASCII.
func (r *Reader) str() []byte {
	r.pos++
	start := r.pos
	for i := start; i < len(r.data); i++ {
		if c := r.data[i]; !plain[c] {
			if c == '"' {
				r.pos = i + 1
				return r.data[start:i]
			}
			return r.unquote(start, i)
		}
	}
	r.pos = len(r.data)
	r.eof()
	return nil
}

// unquote finishes a string literal that starts at data[start] and whose
// bytes up to data[i] are plain ASCII, following encoding/json: escapes are
// decoded, a surrogate escape that is not the first half of a pair reads as
// U+FFFD, and so does each byte of invalid UTF-8. It returns a sub-slice of
// the input when nothing needed rewriting.
func (r *Reader) unquote(start, i int) []byte {
	d := r.data
	var out []byte // nil while the literal's bytes are its value
	rewrite := func() {
		if out == nil {
			out = append(make([]byte, 0, i-start+utf8.UTFMax), d[start:i]...)
		}
	}
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			r.pos = i + 1
			if out == nil {
				return d[start:i]
			}
			return out
		case c < ' ':
			r.pos = i
			r.unexpected("in string literal")
			return nil
		case c == '\\':
			rewrite()
			if i+1 >= len(d) {
				r.pos = len(d)
				r.eof()
				return nil
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr, ok := r.hex4(i + 2)
				if !ok {
					return nil
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					if lo, ok := u4(d, i); ok {
						if dec := utf16.DecodeRune(rr, lo); dec != utf8.RuneError {
							out = utf8.AppendRune(out, dec)
							i += 6
							continue
						}
					}
					rr = utf8.RuneError
				}
				out = utf8.AppendRune(out, rr)
				continue
			default:
				r.pos = i + 1
				r.unexpected("in string escape code")
				return nil
			}
			i += 2
		case c < utf8.RuneSelf:
			if out != nil {
				out = append(out, c)
			}
			i++
		default:
			rr, size := utf8.DecodeRune(d[i:])
			if rr == utf8.RuneError && size == 1 {
				rewrite()
				out = utf8.AppendRune(out, utf8.RuneError)
			} else if out != nil {
				out = append(out, d[i:i+size]...)
			}
			i += size
		}
	}
	r.pos = len(d)
	r.eof()
	return nil
}

// hex4 decodes the four hex digits of a \u escape starting at data[i].
func (r *Reader) hex4(i int) (rune, bool) {
	var v rune
	for j := i; j < i+4; j++ {
		if j >= len(r.data) {
			r.pos = j
			r.eof()
			return 0, false
		}
		h, ok := hexVal(r.data[j])
		if !ok {
			r.pos = j
			r.unexpected("in \\u hexadecimal character escape")
			return 0, false
		}
		v = v<<4 | h
	}
	return v, true
}

// u4 decodes a complete \uXXXX escape at d[i], if there is one.
func u4(d []byte, i int) (rune, bool) {
	if i+6 > len(d) || d[i] != '\\' || d[i+1] != 'u' {
		return 0, false
	}
	var v rune
	for _, c := range d[i+2 : i+6] {
		h, ok := hexVal(c)
		if !ok {
			return 0, false
		}
		v = v<<4 | h
	}
	return v, true
}

func hexVal(c byte) (rune, bool) {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0'), true
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10), true
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10), true
	}
	return 0, false
}
