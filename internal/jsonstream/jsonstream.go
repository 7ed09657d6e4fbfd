// Package jsonstream decodes one top-level JSON object token by token,
// dispatching each key's value to a registered handler as it arrives on
// the wire. The service layer uses it for request bodies (job submits)
// so a submission is parsed as it streams in — a chunked upload starts
// decoding on the first chunk, and the handler never materializes the
// document as a whole, only one field's value at a time. Unknown keys
// are rejected by name, preserving the strictness of
// json.Decoder.DisallowUnknownFields with a friendlier error, and every
// error the package raises says where: "at byte N" is the decoder's input
// offset just past the offending key or value.
package jsonstream

import (
	"encoding/json"
	"fmt"
	"io"
)

// FieldFunc consumes exactly one JSON value from dec — the value of the
// field it is registered for. The typed helpers (String, Int, ...) cover
// the common cases; register a FieldFunc directly for anything fancier
// (nested objects, arrays processed element-wise).
type FieldFunc func(dec *json.Decoder) error

// Object is a streaming decoder for one JSON object shape: a set of
// known fields and their handlers. Register fields once, Decode per
// request; an Object is read-only during Decode and safe to share.
type Object struct {
	fields map[string]FieldFunc
}

// NewObject returns an empty shape.
func NewObject() *Object {
	return &Object{fields: make(map[string]FieldFunc)}
}

// Field registers a handler for one key.
func (o *Object) Field(name string, fn FieldFunc) {
	o.fields[name] = fn
}

// decodeInto adapts json.Decoder.Decode to a destination pointer —
// Decode consumes exactly the next value in the token stream, which is
// precisely the FieldFunc contract.
func decodeInto[T any](dst *T) FieldFunc {
	return func(dec *json.Decoder) error { return dec.Decode(dst) }
}

// String registers a string-valued field decoded into dst.
func (o *Object) String(name string, dst *string) { o.Field(name, decodeInto(dst)) }

// Bool registers a boolean field.
func (o *Object) Bool(name string, dst *bool) { o.Field(name, decodeInto(dst)) }

// Int registers an integer field.
func (o *Object) Int(name string, dst *int) { o.Field(name, decodeInto(dst)) }

// Int64 registers a 64-bit integer field.
func (o *Object) Int64(name string, dst *int64) { o.Field(name, decodeInto(dst)) }

// Float64 registers a floating-point field.
func (o *Object) Float64(name string, dst *float64) { o.Field(name, decodeInto(dst)) }

// Decode reads one JSON object from r, dispatching each field to its
// handler in wire order. Unknown fields fail with an error naming the
// offender and its byte offset; so does anything but a single object
// followed by EOF.
// Errors from the underlying reader (e.g. *http.MaxBytesError) pass
// through unwrapped so callers can classify them.
func (o *Object) Decode(r io.Reader) error {
	dec := json.NewDecoder(r)
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if delim, ok := tok.(json.Delim); !ok || delim != '{' {
		return fmt.Errorf("expected a JSON object, found %v", tok)
	}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return err
		}
		key, ok := keyTok.(string)
		if !ok {
			return fmt.Errorf("malformed object key %v at byte %d", keyTok, dec.InputOffset())
		}
		fn := o.fields[key]
		if fn == nil {
			return fmt.Errorf("unknown field %q at byte %d", key, dec.InputOffset())
		}
		if err := fn(dec); err != nil {
			// Reader errors pass through bare for classification; decode
			// errors get the field name prepended.
			var syn *json.SyntaxError
			if _, isType := err.(*json.UnmarshalTypeError); isType || asErr(err, &syn) {
				return fmt.Errorf("field %q: %w at byte %d", key, err, dec.InputOffset())
			}
			return err
		}
	}
	if _, err := dec.Token(); err != nil { // the closing '}'
		return err
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the JSON object at byte %d", end)
	}
	return nil
}

// asErr is errors.As without importing errors (keeps the import list to
// the decoding essentials).
func asErr[T error](err error, target *T) bool {
	for err != nil {
		if t, ok := err.(T); ok {
			*target = t
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
