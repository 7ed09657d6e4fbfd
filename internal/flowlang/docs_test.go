package flowlang_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"psaflow/internal/flowlang"
)

// TestDocsCoverage is the checkdocs gate for the language reference: every
// keyword, device set, strategy, condition, and validation error code the
// implementation knows must appear in docs/FLOWS.md, and every task's
// catalog row exactly as the registry builds it (engine name, needs,
// gives), so an undocumented construct or a stale row fails CI.
func TestDocsCoverage(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "FLOWS.md"))
	if err != nil {
		t.Fatalf("read docs/FLOWS.md: %v", err)
	}
	doc := string(raw)

	check := func(group, item string) {
		if !strings.Contains(doc, item) {
			t.Errorf("docs/FLOWS.md does not mention %s %q", group, item)
		}
	}
	for _, kw := range []string{
		"flow", "def", "use", "task", "branch", "path", "foreach", "in",
		"as", "when", "strategy", "gated", "revisions", "budget", "retry",
		"faults",
	} {
		check("keyword", kw)
	}
	for _, name := range flowlang.TaskNames() {
		check("task catalog row", flowlang.CatalogRow(name))
	}
	for _, code := range flowlang.ErrorCodes() {
		check("error code", "`"+code+"`")
	}
	for _, s := range []string{"auto", "informed", "all"} {
		check("strategy", s)
	}
	for _, s := range []string{"gpus", "fpgas"} {
		check("device set", "`"+s+"`")
	}
	for _, s := range []string{"sharing", "informed", "uninformed", "usm"} {
		check("condition", s)
	}
	for _, s := range []string{"ai-threshold", "transfer-bw"} {
		check("strategy argument", "`"+s+"`")
	}
	for _, s := range []string{"PUT /v1/flows/", "GET /v1/flows", "flowlang.compiles", "flowlang.registry."} {
		check("registry reference", s)
	}
	for _, s := range []string{"examples/flows/paper.psa", "examples/flows/minimal.psa", "examples/flows/faults.psa"} {
		check("example", s)
	}
}
