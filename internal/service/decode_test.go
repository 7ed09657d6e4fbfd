package service

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestSubmitChunkedBody drives the streaming decoder over a real chunked
// upload: the body arrives via an io.Pipe in small pieces with pauses, so
// the request has no Content-Length and the handler must parse tokens as
// they trickle in rather than buffering the document.
func TestSubmitChunkedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	body := `{"bench":"adpredictor","mode":"informed","tenant":"acme","priority":2}`
	pr, pw := io.Pipe()
	go func() {
		defer pw.Close()
		for i := 0; i < len(body); i += 7 {
			end := min(i+7, len(body))
			if _, err := pw.Write([]byte(body[i:end])); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength == 0 && req.ContentLength != 0 {
		t.Fatalf("request was not chunked (ContentLength %d)", req.ContentLength)
	}
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunked submit: got %d, body %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), `"tenant": "acme"`) {
		t.Fatalf("status missing tenant: %s", raw)
	}
}

// TestSubmitStreamDecodeErrors pins the streaming decoder to the old
// handler contract: unknown fields 400 naming the offender and its byte
// offset, oversized bodies 413, non-object bodies 400.
func TestSubmitStreamDecodeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, MaxBody: 256})

	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	if code, body := post(`{"bench":"adpredictor","time_out_ms":5}`); code != http.StatusBadRequest || !strings.Contains(body, `time_out_ms\" at byte 36`) {
		t.Errorf("typoed field: got %d %s", code, body)
	}
	// A removed option is an unknown field like any other, not silently
	// accepted for old clients.
	if code, body := post(`{"bench":"adpredictor","dse_workers":4}`); code != http.StatusBadRequest || !strings.Contains(body, `unknown field \"dse_workers\" at byte 36`) {
		t.Errorf("removed field: got %d %s", code, body)
	}
	if code, _ := post(`{"bench":"adpredictor","source":"` + strings.Repeat("x", 400) + `"}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: got %d", code)
	}
	if code, _ := post(`["adpredictor"]`); code != http.StatusBadRequest {
		t.Errorf("non-object body: got %d", code)
	}
	if code, body := post(`{"bench":"adpredictor"}{"bench":"adpredictor"}`); code != http.StatusBadRequest || !strings.Contains(body, "at byte 23") {
		t.Errorf("trailing data: got %d %s", code, body)
	}
}
