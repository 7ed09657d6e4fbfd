package service

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"psaflow/internal/cluster"
)

// TestMetricsServiceBlockDocumented decodes /metrics from a daemon that
// fills every optional part of the service block (a store, a tenant with a
// job, a cluster node) and requires its keys to be exactly the fields the
// first table of docs/OPERATIONS.md's "Metrics reference" names: a field
// served undocumented, or documented and gone, fails here.
func TestMetricsServiceBlockDocumented(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatalf("read docs/OPERATIONS.md: %v", err)
	}
	_, ref, ok := strings.Cut(string(raw), "\n## Metrics reference\n")
	if !ok {
		t.Fatal(`docs/OPERATIONS.md has no "## Metrics reference" section`)
	}
	field := regexp.MustCompile("`([a-z_]+)`")
	var documented []string
	inTable := false
	for _, line := range strings.Split(ref, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		first := strings.Split(line, "|")[1]
		for _, m := range field.FindAllStringSubmatch(first, -1) {
			documented = append(documented, m[1])
		}
	}
	slices.Sort(documented)

	node, err := cluster.New(cluster.Config{Self: "ca"})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, DataDir: t.TempDir(), Cluster: node})
	h := installBlockingHook(s)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	st := submitOK(t, ts.URL, JobSpec{Bench: "nbody", Tenant: "acme"})
	h.waitStarted(t)

	code, body := getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: got %d, body %s", code, body)
	}
	var m struct {
		Service map[string]json.RawMessage `json:"service"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	var served []string
	for k := range m.Service {
		served = append(served, k)
	}
	slices.Sort(served)
	if !slices.Equal(served, documented) {
		t.Errorf("the /metrics service block and docs/OPERATIONS.md disagree:\n served     %v\n documented %v", served, documented)
	}

	close(h.release)
	waitState(t, ts.URL, st.ID, 10*time.Second, StateDone)
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}
