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

// TestDecodeMatchesEncodingJSON: on every body, Decode stores what
// json.Unmarshal stores into the same fields, or both fail; each body is
// read whole and one byte at a time.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	type ref struct {
		Name    string  `json:"name"`
		Count   int     `json:"count"`
		Big     int64   `json:"big"`
		Ratio   float64 `json:"ratio"`
		Enabled bool    `json:"enabled"`
	}
	bodies := []string{
		`{"name":"a\"b\\c\/d\b\f\n\r\t"}`,
		`{"name":"\u00e9\u2028\ud83d\ude00 snow ☃"}`,
		`{"name":"lone \ud83d surrogate \ude00 and \ud83dx"}`,
		"{\"name\":\"bad \xff\xfe utf8 \xc3\"}",
		`{"name":"\u004"}`, `{"name":"\x"}`, `{"name":"\'"}`, "{\"name\":\"tab\there\"}",
		`{"name":null,"count":null,"enabled":null}`,
		` { "count" : -0 , "big" : 9223372036854775807 , "ratio" : -1.5e-3 } `,
		`{"big":9223372036854775808}`, `{"count":1.0}`, `{"count":1e2}`, `{"ratio":1e400}`,
		`{"count":01}`, `{"count":-}`, `{"count":1.}`, `{"count":.5}`, `{"count":+1}`, `{"ratio":2E+3}`,
		`{"enabled":true}`, `{"enabled":false}`, `{"enabled":tru}`, `{"enabled":nul}`,
		`{"count":"3"}`, `{"name":3}`, `{"name":true}`, `{"enabled":1}`, `{"count":[1]}`, `{"name":{"a":[1,{"b":null}]}}`,
		`{"count":1,}`, `{,"count":1}`, `{"count" 1}`, `{"count":1 "big":2}`, `{"count":1`, `{"count":`, `{"na`, `{`,
		`{"n\u0061me":"escaped key"}`, `{}`, `{"name":"x","name":"y"}`,
	}
	for _, body := range bodies {
		var want ref
		wantErr := json.Unmarshal([]byte(body), &want)
		for _, r := range []io.Reader{strings.NewReader(body), &trickleReader{data: []byte(body)}} {
			var s sample
			err := sampleObject(&s).Decode(r)
			got := ref{s.name, s.count, s.big, s.ratio, s.enabled}
			if (err != nil) != (wantErr != nil) || err == nil && got != want {
				t.Errorf("%s:\n got %+v, %v\nwant %+v, %v", body, got, err, want, wantErr)
			}
			var typeErr, wantType *json.UnmarshalTypeError
			if errors.As(wantErr, &wantType) && (!errors.As(err, &typeErr) || typeErr.Value != wantType.Value || typeErr.Type != wantType.Type) {
				t.Errorf("%s: got %v, want the type error %v", body, err, wantErr)
			}
		}
	}
}

// TestDecodeScalarAllocations: decoding an object of scalar fields
// allocates the string values it stores and the scanner's buffer, nothing
// per key or per value.
func TestDecodeScalarAllocations(t *testing.T) {
	var s sample
	o := sampleObject(&s)
	body := `{"name":"vadd\n","count":3,"big":9000000000,"ratio":0.25,"enabled":true}`
	r := strings.NewReader(body)
	n := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		if err := o.Decode(r); err != nil {
			t.Fatal(err)
		}
	})
	if n > 2 {
		t.Errorf("Decode allocates %.0f times, want at most 2 (the buffer and the name)", n)
	}
}
