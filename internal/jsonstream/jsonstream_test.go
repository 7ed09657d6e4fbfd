package jsonstream

import (
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

type sample struct {
	name    string
	count   int
	big     int64
	ratio   float64
	enabled bool
}

func sampleObject(s *sample) *Object {
	o := NewObject()
	o.String("name", &s.name)
	o.Int("count", &s.count)
	o.Int64("big", &s.big)
	o.Float64("ratio", &s.ratio)
	o.Bool("enabled", &s.enabled)
	return o
}

func TestDecodeAllFields(t *testing.T) {
	var s sample
	body := `{"name":"vadd","count":3,"big":9000000000,"ratio":0.25,"enabled":true}`
	if err := sampleObject(&s).Decode(strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	if s.name != "vadd" || s.count != 3 || s.big != 9000000000 || s.ratio != 0.25 || !s.enabled {
		t.Fatalf("decoded: %+v", s)
	}
}

func TestDecodePartialAndEmpty(t *testing.T) {
	var s sample
	if err := sampleObject(&s).Decode(strings.NewReader(`{"count":7}`)); err != nil {
		t.Fatal(err)
	}
	if s.count != 7 || s.name != "" {
		t.Fatalf("decoded: %+v", s)
	}
	if err := sampleObject(&s).Decode(strings.NewReader(`{}`)); err != nil {
		t.Fatalf("empty object: %v", err)
	}
}

func TestDecodeUnknownFieldNamed(t *testing.T) {
	var s sample
	err := sampleObject(&s).Decode(strings.NewReader(`{"name":"x","cuont":1}`))
	if err == nil || !strings.Contains(err.Error(), `"cuont" at byte 19`) {
		t.Fatalf("unknown field error should name the offender and the end of its key, got %v", err)
	}
}

func TestDecodeTypeMismatchNamesField(t *testing.T) {
	var s sample
	err := sampleObject(&s).Decode(strings.NewReader(`{"count":"three"}`))
	if err == nil || !strings.Contains(err.Error(), `"count"`) || !strings.HasSuffix(err.Error(), "at byte 16") {
		t.Fatalf("type error should name the field and the end of its value, got %v", err)
	}
	var typeErr *json.UnmarshalTypeError
	if !errors.As(err, &typeErr) {
		t.Errorf("type error no longer unwraps to *json.UnmarshalTypeError: %v", err)
	}
}

func TestDecodeRejectsNonObject(t *testing.T) {
	var s sample
	for _, body := range []string{`[1,2]`, `"hi"`, `42`, ``} {
		if err := sampleObject(&s).Decode(strings.NewReader(body)); err == nil {
			t.Errorf("body %q decoded, want error", body)
		}
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	var s sample
	err := sampleObject(&s).Decode(strings.NewReader(`{"count":1}{"count":2}`))
	if err == nil || !strings.Contains(err.Error(), "trailing data after the JSON object at byte 11") {
		t.Fatalf("trailing data: %v", err)
	}
}

func TestDecodeNestedViaFieldFunc(t *testing.T) {
	var tags []string
	var s sample
	o := sampleObject(&s)
	o.Field("tags", func(dec *json.Decoder) error { return dec.Decode(&tags) })
	body := `{"name":"n","tags":["a","b"],"count":2}`
	if err := o.Decode(strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	if len(tags) != 2 || tags[0] != "a" || s.count != 2 {
		t.Fatalf("tags %v count %d", tags, s.count)
	}
}

// trickleReader yields one byte per Read, the worst-case chunked wire.
type trickleReader struct{ data []byte }

func (r *trickleReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	p[0] = r.data[0]
	r.data = r.data[1:]
	return 1, nil
}

func TestDecodeFromTrickle(t *testing.T) {
	var s sample
	body := `{"name":"vadd","count":3,"ratio":1.5}`
	if err := sampleObject(&s).Decode(&trickleReader{data: []byte(body)}); err != nil {
		t.Fatal(err)
	}
	if s.name != "vadd" || s.count != 3 || s.ratio != 1.5 {
		t.Fatalf("decoded: %+v", s)
	}
}

// failAfterReader serves n bytes then fails with errBoom, standing in for
// http.MaxBytesReader tripping mid-stream.
var errBoom = errors.New("boom")

type failAfterReader struct {
	data []byte
	n    int
}

func (r *failAfterReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, errBoom
	}
	take := min(min(len(p), r.n), len(r.data))
	copy(p, r.data[:take])
	r.data = r.data[take:]
	r.n -= take
	return take, nil
}

func TestDecodeReaderErrorPassesThrough(t *testing.T) {
	var s sample
	body := `{"name":"` + strings.Repeat("x", 100) + `"}`
	err := sampleObject(&s).Decode(&failAfterReader{data: []byte(body), n: 20})
	if !errors.Is(err, errBoom) {
		t.Fatalf("want bare reader error, got %v", err)
	}
}
