// Package jsonstream decodes one top-level JSON object token by token,
// decoding each key's value into a registered destination as it arrives
// on the wire. The service layer uses it for request bodies (job submits)
// so a submission is parsed as it streams in — a chunked upload starts
// decoding on the first chunk, and the handler never materializes the
// document as a whole, only one field's value at a time. Unknown keys
// are rejected by name, preserving the strictness of
// json.Decoder.DisallowUnknownFields with a friendlier error, and every
// error the package raises says where: "at byte N" is the input offset
// just past the offending key or value.
//
// The object, its keys and its scalar values are read by the package's own
// scanner, which decodes strings and numbers as encoding/json does into
// the registered destination and builds nothing it throws away; a null, a
// mismatched or a nested value is read by a json.Decoder handed the rest
// of the input.
package jsonstream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Object is a streaming decoder for one JSON object shape: a set of
// known fields and their destinations. Register fields once, Decode per
// request; an Object is read-only during Decode and safe to share.
type Object struct {
	fields map[string]field
}

// field is one registered key and its destination, a *string, *bool,
// *int, *int64 or *float64.
type field struct {
	name string
	dst  any
}

// NewObject returns an empty shape.
func NewObject() *Object {
	return &Object{fields: make(map[string]field)}
}

// String registers a string-valued field decoded into dst.
func (o *Object) String(name string, dst *string) { o.fields[name] = field{name: name, dst: dst} }

// Bool registers a boolean field.
func (o *Object) Bool(name string, dst *bool) { o.fields[name] = field{name: name, dst: dst} }

// Int registers an integer field.
func (o *Object) Int(name string, dst *int) { o.fields[name] = field{name: name, dst: dst} }

// Int64 registers a 64-bit integer field.
func (o *Object) Int64(name string, dst *int64) { o.fields[name] = field{name: name, dst: dst} }

// Float64 registers a floating-point field.
func (o *Object) Float64(name string, dst *float64) { o.fields[name] = field{name: name, dst: dst} }

// Decode reads one JSON object from r, decoding each field into its
// destination in wire order. Unknown fields fail with an error naming the
// offender and its byte offset; so does anything but a single object
// followed by EOF. A value of the wrong type fails with a
// *json.UnmarshalTypeError, wrapped to name the field; a null leaves the
// destination as it is. Errors from the underlying reader (e.g.
// *http.MaxBytesError) pass through unwrapped so callers can classify
// them; input that ends inside the object is io.ErrUnexpectedEOF, and
// input that ends before it io.EOF.
func (o *Object) Decode(r io.Reader) error {
	s := scanner{r: r}
	c, err := s.next()
	if err != nil {
		return err
	}
	if c != '{' {
		return fmt.Errorf("expected a JSON object, found %q at byte %d", c, s.offset())
	}
	s.pos++
	if c, err = s.nextIn(); err != nil {
		return err
	}
	for c != '}' {
		if c != '"' {
			return s.syntaxError(c, "looking for beginning of object key string")
		}
		key, err := s.str()
		if err != nil {
			return err
		}
		f, ok := o.fields[string(key)]
		if !ok {
			return fmt.Errorf("unknown field %q at byte %d", key, s.offset())
		}
		if c, err = s.nextIn(); err != nil {
			return err
		}
		if c != ':' {
			return s.syntaxError(c, "after object key")
		}
		s.pos++
		if err := s.field(&f); err != nil {
			return err
		}
		if c, err = s.nextIn(); err != nil {
			return err
		}
		switch c {
		case ',':
			s.pos++
			if c, err = s.nextIn(); err != nil {
				return err
			}
			if c == '}' {
				return s.syntaxError(c, "looking for beginning of object key string")
			}
		case '}':
		default:
			return s.syntaxError(c, "after object key:value pair")
		}
	}
	s.pos++
	end := s.offset()
	switch _, err := s.next(); err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("trailing data after the JSON object at byte %d", end)
	default:
		return err
	}
}

// field decodes the next value into f's destination. The scanner stores a
// string, a number or true/false that fits the destination itself; any
// other value — null, a mismatch, an object or array, a number out of
// range — goes to a json.Decoder (handOff).
func (s *scanner) field(f *field) error {
	c, err := s.nextIn()
	if err != nil {
		return err
	}
	switch {
	case c == '"':
		dst, ok := f.dst.(*string)
		if !ok {
			break
		}
		b, err := s.str()
		if err != nil {
			if _, ok := err.(*syntaxError); ok {
				err = fmt.Errorf("field %q: %w", f.name, err)
			}
			return err
		}
		*dst = string(b)
		return nil
	case c == '-' || '0' <= c && c <= '9':
		if s.number(f) {
			return nil
		}
	case c == 't' || c == 'f':
		if s.boolean(f) {
			return nil
		}
	}
	return s.handOff(f)
}

// handOff decodes the next value into f's destination through a
// json.Decoder over the rest of the input, and reads on from where that
// decoder stopped. A decode error is wrapped to name the field and the
// offset the decoder reached; a reader's error passes through bare.
func (s *scanner) handOff(f *field) error {
	start := s.offset()
	rest := io.MultiReader(bytes.NewReader(s.buf[s.pos:]), s.source())
	dec := json.NewDecoder(rest)
	err := dec.Decode(f.dst)
	s.r, s.buf, s.pos, s.err = io.MultiReader(dec.Buffered(), rest), nil, 0, nil
	s.base = start + dec.InputOffset()
	var syn *json.SyntaxError
	if _, isType := err.(*json.UnmarshalTypeError); isType || errors.As(err, &syn) {
		return fmt.Errorf("field %q: %w at byte %d", f.name, err, s.base)
	}
	return err
}

// source is what is left of the input past buf: the reader, or its error
// once it has returned one.
func (s *scanner) source() io.Reader {
	if s.err != nil {
		return errReader{s.err}
	}
	return s.r
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// syntaxError is malformed JSON: what was found, and where.
type syntaxError struct {
	msg string
	off int64
}

func (e *syntaxError) Error() string { return fmt.Sprintf("%s at byte %d", e.msg, e.off) }

func (s *scanner) syntaxError(c byte, context string) error {
	return &syntaxError{msg: fmt.Sprintf("invalid character %q %s", c, context), off: s.offset()}
}

// minRead is the least free space the scanner reads into.
const minRead = 512

// scanner reads JSON from r through one growing buffer. buf[pos] is the
// next byte to read; bytes before it are dropped when more input is read.
type scanner struct {
	r    io.Reader
	buf  []byte
	pos  int
	base int64 // the input offset of buf[0]
	err  error // the reader's error once it has returned one
}

// offset is the input offset of buf[pos].
func (s *scanner) offset() int64 { return s.base + int64(s.pos) }

// more reads input into buf and reports whether there may be more to
// read; s.err says why not.
func (s *scanner) more() bool {
	if s.err != nil {
		return false
	}
	if keep := s.pos; keep > 0 {
		n := copy(s.buf, s.buf[keep:])
		s.buf = s.buf[:n]
		s.base += int64(keep)
		s.pos -= keep
	}
	if cap(s.buf)-len(s.buf) < minRead {
		nb := make([]byte, len(s.buf), max(2*cap(s.buf)+minRead, 4096))
		copy(nb, s.buf)
		s.buf = nb
	}
	n, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
	s.buf = s.buf[:len(s.buf)+n]
	s.err = err
	return n > 0 || err == nil
}

// load makes buf[i] readable, i at or after pos: it returns where that
// byte is after any read, or -1 when the input ends first.
func (s *scanner) load(i int) int {
	for i >= len(s.buf) {
		pos := s.pos
		if !s.more() {
			return -1
		}
		i -= pos - s.pos
	}
	return i
}

// next skips white space and returns the next byte, unread; at the end of
// the input it returns the reader's error, io.EOF for a clean end.
func (s *scanner) next() (byte, error) {
	for {
		for ; s.pos < len(s.buf); s.pos++ {
			if c := s.buf[s.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return c, nil
			}
		}
		if !s.more() {
			return 0, s.err
		}
	}
}

// nextIn is next inside the object, where the end of the input is
// io.ErrUnexpectedEOF.
func (s *scanner) nextIn() (byte, error) {
	c, err := s.next()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return c, err
}

// endErr is the error for input that ends inside a token.
func (s *scanner) endErr() error {
	if s.err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return s.err
}

// scanString reads past the string whose opening quote is at pos and
// returns the index of its closing quote, whether it holds an escape, and
// whether it holds a byte outside ASCII. pos is left on the opening quote.
func (s *scanner) scanString() (end int, escaped, nonASCII bool, err error) {
	for i := s.pos + 1; ; i++ {
		if i = s.load(i); i < 0 {
			return 0, false, false, s.endErr()
		}
		switch c := s.buf[i]; {
		case c == '"':
			return i, escaped, nonASCII, nil
		case c == '\\':
			escaped = true
			if i = s.load(i + 1); i < 0 {
				return 0, false, false, s.endErr()
			}
		case c < ' ':
			s.pos = i
			return 0, false, false, s.syntaxError(c, "in string literal")
		case c >= utf8.RuneSelf:
			nonASCII = true
		}
	}
}

// str reads the string at pos and returns its value, unquoted as
// encoding/json unquotes: a view of the buffer, good until the next read.
func (s *scanner) str() ([]byte, error) {
	end, escaped, nonASCII, err := s.scanString()
	if err != nil {
		return nil, err
	}
	raw := s.buf[s.pos+1 : end]
	valid := !nonASCII || utf8.Valid(raw)
	if !escaped && valid {
		s.pos = end + 1
		return raw, nil
	}
	// Unquoting never lengthens valid UTF-8, so it can write over what it
	// has read; invalid bytes each become a three-byte U+FFFD.
	dst := raw[:0]
	if !valid {
		dst = make([]byte, 0, len(raw)+2*utf8.UTFMax)
	}
	out, ok := unquote(dst, raw)
	if !ok {
		return nil, &syntaxError{msg: "invalid escape in string literal", off: s.offset()}
	}
	s.pos = end + 1
	return out, nil
}

// unquote appends raw, the inside of a string literal, to dst with its
// escapes decoded, as encoding/json does: an unpaired surrogate and each
// byte of invalid UTF-8 become U+FFFD. false means a malformed escape.
func unquote(dst, raw []byte) ([]byte, bool) {
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			if r+1 == len(raw) {
				return dst, false
			}
			switch e := raw[r+1]; e {
			case '"', '\\', '/':
				dst = append(dst, e)
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := getu4(raw[r:])
				if rr < 0 {
					return dst, false
				}
				r += 6
				if utf16.IsSurrogate(rr) {
					if rr1 := getu4(raw[r:]); rr1 >= 0 {
						if d := utf16.DecodeRune(rr, rr1); d != unicode.ReplacementChar {
							dst = utf8.AppendRune(dst, d)
							r += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default:
				return dst, false
			}
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst, true
}

// getu4 decodes the \uXXXX at the start of b, or returns -1.
func getu4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	n, err := strconv.ParseUint(string(b[2:6]), 16, 32)
	if err != nil {
		return -1
	}
	return rune(n)
}

// number stores the number at pos in f's integer or float destination,
// reads past it and reports true; a number that is malformed or out of the
// destination's range, or a destination of another type, it leaves unread.
func (s *scanner) number(f *field) bool {
	i := s.pos
	for ; ; i++ {
		if i = s.load(i); i < 0 {
			i = len(s.buf)
			break
		}
		if c := s.buf[i]; c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && (c < '0' || c > '9') {
			break
		}
	}
	num := s.buf[s.pos:i]
	if !validNumber(num) {
		return false
	}
	switch dst := f.dst.(type) {
	case *int:
		n, err := strconv.ParseInt(string(num), 10, 64)
		if err != nil {
			return false
		}
		*dst = int(n)
	case *int64:
		n, err := strconv.ParseInt(string(num), 10, 64)
		if err != nil {
			return false
		}
		*dst = n
	case *float64:
		x, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return false
		}
		*dst = x
	default:
		return false
	}
	s.pos = i
	return true
}

// validNumber reports whether b is a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func validNumber(b []byte) bool {
	if len(b) > 0 && b[0] == '-' {
		b = b[1:]
	}
	digits := func() int {
		n := 0
		for n < len(b) && '0' <= b[n] && b[n] <= '9' {
			n++
		}
		b = b[n:]
		return n
	}
	switch {
	case len(b) == 0:
		return false
	case b[0] == '0':
		b = b[1:]
	case digits() == 0:
		return false
	}
	if len(b) > 0 && b[0] == '.' {
		b = b[1:]
		if digits() == 0 {
			return false
		}
	}
	if len(b) > 0 && (b[0] == 'e' || b[0] == 'E') {
		b = b[1:]
		if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
			b = b[1:]
		}
		if digits() == 0 {
			return false
		}
	}
	return len(b) == 0
}

// boolean stores the true or false at pos in f's bool destination, reads
// past it and reports true; anything else it leaves unread.
func (s *scanner) boolean(f *field) bool {
	i := s.pos
	for ; ; i++ {
		if i = s.load(i); i < 0 {
			i = len(s.buf)
			break
		}
		if c := s.buf[i]; c < 'a' || c > 'z' {
			break
		}
	}
	dst, ok := f.dst.(*bool)
	switch lit := s.buf[s.pos:i]; {
	case !ok:
		return false
	case string(lit) == "true":
		*dst = true
	case string(lit) == "false":
		*dst = false
	default:
		return false
	}
	s.pos = i
	return true
}
