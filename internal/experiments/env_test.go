package experiments

import (
	"strings"
	"testing"

	"psaflow/internal/faults"
	"psaflow/internal/flowlang"
)

// TestResolveEnvTiers walks explicit > document > default for each of the
// three settings a flow document can carry.
func TestResolveEnvTiers(t *testing.T) {
	compile := func(settings string) *flowlang.Compiled {
		t.Helper()
		c, err := flowlang.CompileSource("flow \"f\" {\n"+settings+"\n  task identify-hotspots\n}\n", flowlang.Options{})
		if err != nil {
			t.Fatalf("compile %q: %v", settings, err)
		}
		return c
	}
	doc := compile("  budget 5\n  faults \"seed=3,rate=0.5\"\n  retry attempts=4 budget=16")
	bare := compile("")
	def := Settings{Faults: "seed=7,rate=0.25", Retry: faults.RetryPolicy{MaxAttempts: 9, Budget: 99}}
	paper := flowlang.Bundled().Compile(flowlang.Options{})
	cases := []struct {
		name        string
		explicit    Settings
		doc         *flowlang.Compiled // nil = the built-in flow, paper
		def         Settings
		seed        int64 // 0 = injection off
		attempts    int
		retryBudget int // as RetryPolicy.WithDefaults reads it: 0 = unlimited
		budget      float64
	}{
		{name: "nothing set anywhere", attempts: 6, retryBudget: 256},
		{name: "default tier alone", def: def, seed: 7, attempts: 9, retryBudget: 99},
		{name: "a document that sets nothing inherits the default", doc: bare, def: def,
			seed: 7, attempts: 9, retryBudget: 99},
		{name: "document beats default", doc: doc, def: def,
			seed: 3, attempts: 4, retryBudget: 16, budget: 5},
		{name: "explicit beats document",
			explicit: Settings{Faults: "seed=2,rate=1", Retry: faults.RetryPolicy{MaxAttempts: 2, Budget: 8}, Budget: 1.5},
			doc:      doc, def: def, seed: 2, attempts: 2, retryBudget: 8, budget: 1.5},
		{name: "explicit beats default on the built-in flow",
			explicit: Settings{Faults: "seed=2,rate=1", Budget: 1.5}, def: def,
			seed: 2, attempts: 9, retryBudget: 99, budget: 1.5},
		{name: `explicit "off" silences document and default`,
			explicit: Settings{Faults: "off"}, doc: doc, def: def,
			attempts: 4, retryBudget: 16, budget: 5},
		{name: "explicit retry fields layer one by one",
			explicit: Settings{Retry: faults.RetryPolicy{MaxAttempts: 3}}, doc: doc, def: def,
			seed: 3, attempts: 3, retryBudget: 16, budget: 5},
		{name: "explicit unlimited retry budget",
			explicit: Settings{Retry: faults.RetryPolicy{Budget: -1}}, def: def,
			seed: 7, attempts: 9, retryBudget: 0},
		{name: "a document's budget=0 means unlimited on every surface",
			doc: compile("  retry attempts=4 budget=0"), def: def,
			seed: 7, attempts: 4, retryBudget: 0},
	}
	for _, c := range cases {
		if c.doc == nil {
			c.doc = paper
		}
		env, err := ResolveEnv(c.explicit, c.doc, c.def)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if env.Faults.Enabled() != (c.seed != 0) || (c.seed != 0 && env.Faults.Seed() != c.seed) {
			t.Errorf("%s: injector %v, want seed %d", c.name, env.Faults, c.seed)
		}
		if got := env.Retry.WithDefaults(); got.MaxAttempts != c.attempts || got.Budget != c.retryBudget {
			t.Errorf("%s: retry attempts=%d budget=%d, want %d / %d", c.name, got.MaxAttempts, got.Budget, c.attempts, c.retryBudget)
		}
		if env.Budget != c.budget || (env.Cost != nil) != (c.budget > 0) {
			t.Errorf("%s: budget %v (cost model set: %t), want %v", c.name, env.Budget, env.Cost != nil, c.budget)
		}
		if env.Flow != c.doc.Flow {
			t.Errorf("%s: env.Flow = %v", c.name, env.Flow)
		}
	}
	if _, err := ResolveEnv(Settings{Faults: "rate=banana"}, paper, Settings{}); err == nil || !strings.HasPrefix(err.Error(), "faults: ") {
		t.Errorf("malformed spec: err = %v, want a faults: error", err)
	}
}
