package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"psaflow/internal/store"
	"psaflow/internal/telemetry"
)

func putFlow(t *testing.T, base, name, src string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/flows/"+name, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func putFlowOK(t *testing.T, base, name, src string) FlowInfo {
	t.Helper()
	code, body := putFlow(t, base, name, src)
	if code != http.StatusCreated {
		t.Fatalf("put flow %s: got %d, body %s", name, code, body)
	}
	var info FlowInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func getFlowInfo(t *testing.T, base, name, query string) (int, FlowInfo, []byte) {
	t.Helper()
	code, body := getJSON(t, base+"/v1/flows/"+name+query)
	var info FlowInfo
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
	}
	return code, info, body
}

const minimalFlowSrc = `flow "reg-test" {
  task identify-hotspots
  task extract-hotspot
}`

const minimalFlowSrcV2 = `flow "reg-test-v2" {
  task identify-hotspots
  task extract-hotspot
  task pointer-analysis
}`

// readExampleFlow loads one of the bundled .psa documents.
func readExampleFlow(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "flows", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestFlowRegistryVersioning drives the registry API end to end: versions
// are assigned sequentially, earlier versions stay immutable and
// retrievable, and the listing shows the latest of each name.
func TestFlowRegistryVersioning(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	v1 := putFlowOK(t, ts.URL, "mine", minimalFlowSrc)
	if v1.Version != 1 || v1.Name != "mine" || v1.FlowName != "reg-test" {
		t.Fatalf("v1 = %+v", v1)
	}
	if v1.Source != "" {
		t.Errorf("put response should omit the source, got %d bytes", len(v1.Source))
	}
	v2 := putFlowOK(t, ts.URL, "mine", minimalFlowSrcV2)
	if v2.Version != 2 {
		t.Fatalf("v2 = %+v", v2)
	}

	// Latest without an explicit version.
	code, latest, body := getFlowInfo(t, ts.URL, "mine", "")
	if code != http.StatusOK || latest.Version != 2 || latest.Source != minimalFlowSrcV2 {
		t.Fatalf("latest: code %d, info %+v, body %s", code, latest, body)
	}
	// The first version is still there, byte-for-byte.
	code, pinned, body := getFlowInfo(t, ts.URL, "mine", "?version=1")
	if code != http.StatusOK || pinned.Version != 1 || pinned.Source != minimalFlowSrc {
		t.Fatalf("v1: code %d, info %+v, body %s", code, pinned, body)
	}
	if code, _, _ := getFlowInfo(t, ts.URL, "mine", "?version=3"); code != http.StatusNotFound {
		t.Errorf("version 3: got %d, want 404", code)
	}
	if code, _, _ := getFlowInfo(t, ts.URL, "other", ""); code != http.StatusNotFound {
		t.Errorf("unknown name: got %d, want 404", code)
	}

	putFlowOK(t, ts.URL, "another", minimalFlowSrc)
	code, body = getJSON(t, ts.URL+"/v1/flows")
	if code != http.StatusOK {
		t.Fatalf("list: got %d, body %s", code, body)
	}
	var list struct {
		Flows []FlowInfo `json:"flows"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Flows) != 2 || list.Flows[0].Name != "another" || list.Flows[1].Name != "mine" || list.Flows[1].Version != 2 {
		t.Fatalf("list = %+v", list.Flows)
	}
	for _, f := range list.Flows {
		if f.Source != "" {
			t.Errorf("listing should omit sources, %s carries %d bytes", f.Name, len(f.Source))
		}
	}
}

// TestFlowRegistryRejectsInvalid checks registration is the validation
// boundary: bad names, unparseable documents, and documents with
// validation errors are all refused with every diagnostic reported.
func TestFlowRegistryRejectsInvalid(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	if code, body := putFlow(t, ts.URL, "Bad_Name", minimalFlowSrc); code != http.StatusBadRequest {
		t.Errorf("bad name: got %d, body %s", code, body)
	}
	if code, body := putFlow(t, ts.URL, "mine", `flow "x" { task`); code != http.StatusBadRequest {
		t.Errorf("parse error: got %d, body %s", code, body)
	}
	code, body := putFlow(t, ts.URL, "mine", "flow \"x\" {\n  task frobnicate\n  task blocksize-dse\n}")
	if code != http.StatusBadRequest {
		t.Fatalf("validation errors: got %d, body %s", code, body)
	}
	var resp struct {
		Error       string   `json:"error"`
		Diagnostics []string `json:"diagnostics"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Diagnostics) != 2 {
		t.Fatalf("want both diagnostics reported, got %+v", resp)
	}
	// Nothing invalid was registered.
	if code, _, _ := getFlowInfo(t, ts.URL, "mine", ""); code != http.StatusNotFound {
		t.Errorf("invalid put registered something: got %d, want 404", code)
	}
}

// TestFlowRegistryRejectsUnmetNeed: a document every other rule accepts but
// whose jobs could only fail — a kernel task before any kernel, a render
// with no target — is refused at registration, with the task's position.
func TestFlowRegistryRejectsUnmetNeed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, body := putFlow(t, ts.URL, "x", "flow \"x\" {\n  task unroll-fixed-loops\n  task identify-hotspots\n  task render-design\n}")
	if code != http.StatusBadRequest || !bytes.Contains(body, []byte("unmet-need")) || !bytes.Contains(body, []byte("2:8")) {
		t.Fatalf("put: got %d, body %s; want 400 naming unmet-need at 2:8", code, body)
	}
	if code, _, _ := getFlowInfo(t, ts.URL, "x", ""); code != http.StatusNotFound {
		t.Errorf("refused flow registered: got %d, want 404", code)
	}
}

// TestFlowRegistryRejectsChoices: a GPU render with no device chosen, and
// a second target on one path, are refused at registration with the
// position of the task at fault.
func TestFlowRegistryRejectsChoices(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	head := "flow \"nodev\" {\n  task identify-hotspots\n  task extract-hotspot\n  task loop-dependence\n  task generate-hip\n"
	for _, c := range []struct{ src, want string }{
		{head + "  task render-design\n}", `6:8: task \"render-design\" needs device, which not every path to it gives [unmet-need]`},
		{head + "  task omp-parallel-loops\n  task num-threads-dse\n  task render-design\n}",
			`6:8: task \"omp-parallel-loops\" chooses target twice: a path chooses its target and its device once [target-twice]`},
	} {
		code, body := putFlow(t, ts.URL, "nodev", c.src)
		if code != http.StatusBadRequest || !bytes.Contains(body, []byte(c.want)) {
			t.Errorf("put: got %d, body %s; want 400 naming %s", code, body, c.want)
		}
	}
	if code, _, _ := getFlowInfo(t, ts.URL, "nodev", ""); code != http.StatusNotFound {
		t.Errorf("refused flow registered: got %d, want 404", code)
	}
}

// TestFlowJobExecution submits a job referencing a registered copy of the
// paper flow and checks it produces exactly the designs of a built-in-flow
// job — the serving-layer leg of the DSL differential.
func TestFlowJobExecution(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Drain()

	putFlowOK(t, ts.URL, "paper", readExampleFlow(t, "paper.psa"))

	builtin := submitOK(t, ts.URL, JobSpec{Bench: "nbody"})
	fromDSL := submitOK(t, ts.URL, JobSpec{Bench: "nbody", Flow: "paper"})
	waitState(t, ts.URL, builtin.ID, 30*time.Second, StateDone)
	waitState(t, ts.URL, fromDSL.ID, 30*time.Second, StateDone)

	var a, b JobResult
	if code, body := getJSON(t, ts.URL+"/v1/jobs/"+builtin.ID+"/result"); code != http.StatusOK {
		t.Fatalf("builtin result: %d", code)
	} else if err := json.Unmarshal(body, &a); err != nil {
		t.Fatal(err)
	}
	if code, body := getJSON(t, ts.URL+"/v1/jobs/"+fromDSL.ID+"/result"); code != http.StatusOK {
		t.Fatalf("flow-job result: %d", code)
	} else if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	if len(a.Designs) == 0 || len(a.Designs) != len(b.Designs) {
		t.Fatalf("design counts differ: builtin %d, flow job %d", len(a.Designs), len(b.Designs))
	}
	for i := range a.Designs {
		x, y := a.Designs[i], b.Designs[i]
		if x.Label != y.Label || x.Speedup != y.Speedup || x.Infeasible != y.Infeasible {
			t.Errorf("design %d differs: builtin %+v, flow job %+v", i, x, y)
		}
	}
	if got := s.rec.Counter(telemetry.CounterFlowCompiles); got < 2 {
		t.Errorf("flowlang.compiles = %d, want >= 2 (registration + job run)", got)
	}

	// The job spec was pinned at submit time.
	if job := s.lookup(fromDSL.ID); job == nil || job.Spec.Flow != "paper@1" {
		t.Errorf("flow ref not pinned: %+v", s.lookup(fromDSL.ID))
	}
}

// TestFlowJobRefValidation: unknown or malformed references fail at
// submit, not in a worker.
func TestFlowJobRefValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if code, body := submit(t, ts.URL, JobSpec{Bench: "nbody", Flow: "ghost"}); code != http.StatusBadRequest {
		t.Errorf("unknown flow: got %d, body %s", code, body)
	}
	if code, body := submit(t, ts.URL, JobSpec{Bench: "nbody", Flow: "UPPER@x"}); code != http.StatusBadRequest {
		t.Errorf("malformed ref: got %d, body %s", code, body)
	}
}

// TestFlowRegistryPersistence: registered versions survive a drain and
// restart byte-for-byte, version numbering continues where it left off,
// and a restarted daemon still resolves a pinned job reference.
func TestFlowRegistryPersistence(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	putFlowOK(t, ts1.URL, "mine", minimalFlowSrc)
	putFlowOK(t, ts1.URL, "mine", minimalFlowSrcV2)
	ts1.Close()
	if _, err := s1.Drain(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()

	code, latest, body := getFlowInfo(t, ts2.URL, "mine", "")
	if code != http.StatusOK || latest.Version != 2 || latest.Source != minimalFlowSrcV2 {
		t.Fatalf("after restart: code %d, info %+v, body %s", code, latest, body)
	}
	code, v1, _ := getFlowInfo(t, ts2.URL, "mine", "?version=1")
	if code != http.StatusOK || v1.Source != minimalFlowSrc {
		t.Fatalf("after restart v1: code %d, info %+v", code, v1)
	}
	if v3 := putFlowOK(t, ts2.URL, "mine", minimalFlowSrc); v3.Version != 3 {
		t.Errorf("post-restart version = %d, want 3", v3.Version)
	}
}

// TestFlowRegistryReplayRechecks: replay checks every version again, so a
// version whose document no longer checks (a task it names has since left
// the catalog, say) stays registered and resolvable, and each of its jobs
// fails with the document's diagnostics instead of re-parsing it.
func TestFlowRegistryReplayRechecks(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	putFlowOK(t, ts1.URL, "mine", minimalFlowSrc)
	ts1.Close()
	if _, err := s1.Drain(); err != nil {
		t.Fatal(err)
	}

	// Version 2 as an older catalog accepted it.
	st, err := store.Open(filepath.Join(dir, "flows"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stale := FlowInfo{Name: "mine", Version: 2, FlowName: "stale", CreatedAt: fmtTime(time.Now()),
		Source: "flow \"stale\" {\n  task frobnicate\n}"}
	data, err := json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(store.Record{Op: store.OpResult, ID: "mine@2", State: "registered", Time: stale.CreatedAt, Data: data}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if code, info, body := getFlowInfo(t, ts2.URL, "mine", ""); code != http.StatusOK || info.Version != 2 {
		t.Fatalf("stale version after restart: code %d, body %s", code, body)
	}
	job := submitOK(t, ts2.URL, JobSpec{Bench: "nbody", Flow: "mine"})
	st2 := waitState(t, ts2.URL, job.ID, 30*time.Second, StateFailed)
	want := `flow mine@2: 2:8: unknown task "frobnicate"`
	if !strings.Contains(st2.Error, want) {
		t.Errorf("job error %q, want it to contain %q", st2.Error, want)
	}
}
