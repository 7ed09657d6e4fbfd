package flowlang_test

import (
	"strings"
	"testing"

	"psaflow/internal/flowlang"
)

// validate parses src (which must be syntactically valid) and returns the
// validator's diagnostics.
func validate(t *testing.T, src string) []flowlang.Diag {
	t.Helper()
	f, err := flowlang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	err = flowlang.Validate(f)
	if err == nil {
		return nil
	}
	el, ok := err.(*flowlang.ErrorList)
	if !ok {
		t.Fatalf("Validate returned %T, want *ErrorList", err)
	}
	return el.Diags
}

// Documents every other rule accepts but whose jobs could only fail: a
// kernel task before any kernel, a render with no target chosen, an
// informed branch before the dependence analysis it reads, two facts
// given where they count only inside a when body or a branch arm, a GPU
// render with no device chosen, and a second target on one path.
const (
	unmetKernelDoc = "flow \"d\" {\n  task unroll-fixed-loops\n  task identify-hotspots\n  task render-design\n}"
	unmetTargetDoc = "flow \"d\" {\n  task identify-hotspots\n  task extract-hotspot\n  task render-design\n}"
	unmetDepsDoc   = "flow \"d\" {\n  task identify-hotspots\n  task extract-hotspot\n  branch \"A\" strategy informed {\n" +
		"    path \"gpu\" { task generate-hip }\n    path \"fpga\" { task generate-oneapi }\n" +
		"    path \"cpu\" { task omp-parallel-loops }\n  }\n}"
	unmetWhenDoc = "flow \"d\" {\n  task identify-hotspots\n  when informed { task extract-hotspot }\n  task pointer-analysis\n}"
	unmetArmDoc  = "flow \"d\" {\n  task identify-hotspots\n  task extract-hotspot\n" +
		"  branch \"A\" strategy all {\n    path \"x\" { task generate-hip }\n  }\n  task render-design\n}"
	noDeviceDoc = "flow \"nodev\" {\n  task identify-hotspots\n  task extract-hotspot\n  task loop-dependence\n" +
		"  task generate-hip\n  task render-design\n}"
	targetTwiceDoc = "flow \"nodev\" {\n  task identify-hotspots\n  task extract-hotspot\n  task loop-dependence\n" +
		"  task generate-hip\n  task omp-parallel-loops\n  task num-threads-dse\n  task render-design\n}"
)

// TestValidateErrors pins the exact code, position, and message of every
// validation diagnostic. One table row per error code in the catalog.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string // "code pos message" per expected diag, in order
	}{
		{
			"unknown-task",
			"flow \"d\" {\n  task frobnicate\n}",
			[]string{`unknown-task 2:8 unknown task "frobnicate" (see docs/FLOWS.md for the task catalog)`},
		},
		{
			"task-takes-no-device",
			"flow \"d\" {\n  branch \"A\" strategy all {\n    foreach dev in gpus {\n      task render-design(dev)\n    }\n  }\n}",
			[]string{`task-takes-no-device 4:26 task "render-design" takes no device argument`},
		},
		{
			"task-needs-device",
			"flow \"d\" {\n  task blocksize-dse\n}",
			[]string{`task-needs-device 2:8 task "blocksize-dse" needs a gpu device argument`},
		},
		{
			"unknown-device-var",
			"flow \"d\" {\n  branch \"A\" strategy all {\n    foreach dev in gpus {\n      task blocksize-dse(gpu)\n    }\n  }\n}",
			[]string{`unknown-device-var 4:26 unknown device variable "gpu" (no enclosing foreach binds it)`},
		},
		{
			"device-class-mismatch",
			"flow \"d\" {\n  branch \"A\" strategy all {\n    foreach dev in gpus {\n      task zero-copy(dev)\n    }\n  }\n}",
			[]string{`device-class-mismatch 4:22 task "zero-copy" wants a fpga device but "dev" ranges over gpus`},
		},
		{
			"unknown-device-set",
			"flow \"d\" {\n  branch \"A\" strategy all {\n    foreach dev in tpus {\n      task render-design\n    }\n  }\n}",
			[]string{`unknown-device-set 3:20 unknown device set "tpus" (want gpus or fpgas)`},
		},
		{
			"nested-foreach",
			"flow \"d\" {\n  branch \"A\" strategy all {\n    foreach a in gpus {\n      branch \"B\" strategy all {\n        foreach b in fpgas {\n          task render-design\n        }\n      }\n    }\n  }\n}",
			[]string{`nested-foreach 5:9 nested foreach: "a" is already bound by an enclosing foreach`},
		},
		{
			"duplicate-path",
			"flow \"d\" {\n  branch \"A\" strategy all {\n    path \"x\" { task render-design }\n    path \"x\" { task render-design }\n  }\n}",
			[]string{`duplicate-path 4:10 duplicate path "x" in branch "A" (first at 3:10)`},
		},
		{
			"duplicate-branch",
			"flow \"d\" {\n  branch \"A\" strategy all {\n    path \"x\" { task render-design }\n  }\n  branch \"A\" strategy all {\n    path \"y\" { task render-design }\n  }\n}",
			[]string{`duplicate-branch 5:10 duplicate branch "A" in this block (first at 2:10)`},
		},
		{
			"empty-branch",
			"flow \"d\" {\n  branch \"A\" strategy all {\n  }\n}",
			[]string{`empty-branch 2:3 branch "A" has no paths`},
		},
		{
			"empty-path",
			"flow \"d\" {\n  branch \"A\" strategy all {\n    path \"x\" {\n    }\n  }\n}",
			[]string{`empty-path 3:5 path "x" has no statements`},
		},
		{
			"unknown-strategy",
			"flow \"d\" {\n  branch \"A\" strategy greedy {\n    path \"x\" { task render-design }\n  }\n}",
			[]string{`unknown-strategy 2:23 unknown strategy "greedy" (want auto, informed, or all)`},
		},
		{
			"bad-strategy-arg",
			"flow \"d\" {\n  branch \"A\" strategy informed(threshold=2) {\n    path \"gpu\" { task render-design }\n    path \"fpga\" { task render-design }\n    path \"cpu\" { task render-design }\n  }\n}",
			[]string{`bad-strategy-arg 2:32 unknown strategy argument "threshold" (want ai-threshold or transfer-bw)`},
		},
		{
			"informed-needs-targets",
			"flow \"d\" {\n  branch \"A\" strategy auto {\n    path \"gpu\" { task render-design }\n    path \"cpu\" { task render-design }\n  }\n}",
			[]string{`informed-needs-targets 2:10 strategy auto on branch "A" needs paths named gpu, fpga, and cpu (missing "fpga")`},
		},
		{
			"unknown-condition",
			"flow \"d\" {\n  when turbo { task render-design }\n}",
			[]string{`unknown-condition 2:8 unknown condition "turbo" (want sharing, informed, uninformed, or <var>.<property>)`},
		},
		{
			"condition-outside-foreach",
			"flow \"d\" {\n  when dev.usm { task render-design }\n}",
			[]string{`condition-outside-foreach 2:8 device condition "dev.usm" needs an enclosing foreach binding "dev"`},
		},
		{
			"unknown-device-property",
			"flow \"d\" {\n  branch \"A\" strategy all {\n    foreach dev in fpgas {\n      when dev.hbm { task render-design }\n    }\n  }\n}",
			[]string{`unknown-device-property 4:16 unknown fpga device property "hbm"`},
		},
		{
			"unknown-def",
			"flow \"d\" {\n  use \"missing\"\n}",
			[]string{`unknown-def 2:7 unknown def "missing"`},
		},
		{
			"duplicate-def",
			"def \"a\" { task render-design }\ndef \"a\" { task render-design }\nflow \"d\" {\n  use \"a\"\n}",
			[]string{`duplicate-def 2:5 duplicate def "a" (first defined at 1:5)`},
		},
		{
			"def-cycle",
			"def \"a\" { use \"b\" }\ndef \"b\" { use \"a\" }\nflow \"d\" {\n  use \"a\"\n}",
			[]string{`def-cycle 2:15 def cycle: "b" uses "a" which (transitively) uses it back`},
		},
		{
			"device-ref-in-def",
			"def \"a\" { task blocksize-dse(dev) }\nflow \"d\" {\n  use \"a\"\n}",
			[]string{`device-ref-in-def 1:30 defs may not reference device variables ("dev"): defs inline outside any foreach`},
		},
		{
			"bad-setting",
			"flow \"d\" {\n  budget 0\n  task render-design\n}",
			[]string{`bad-setting 2:10 budget must be positive, got 0`},
		},
		{
			"bad-setting faults",
			"flow \"d\" {\n  faults \"rate=nope\"\n  task render-design\n}",
			nil, // message includes the ParseSpec error; checked by prefix below
		},
		{
			"duplicate-setting",
			"flow \"d\" {\n  budget 1\n  budget 2\n  task render-design\n}",
			[]string{`duplicate-setting 3:3 duplicate budget setting (first at 2:3)`},
		},
		{
			"empty-flow",
			"flow \"d\" {\n}",
			[]string{`empty-flow 1:1 flow "d" has no statements`},
		},
		{
			"unmet-need",
			unmetKernelDoc,
			[]string{
				`unmet-need 2:8 task "unroll-fixed-loops" needs kernel, which not every path to it gives`,
				`unmet-need 4:8 task "render-design" needs target and device, which not every path to it gives`,
			},
		},
		{
			"unmet-need target",
			unmetTargetDoc,
			[]string{`unmet-need 4:8 task "render-design" needs target and device, which not every path to it gives`},
		},
		{
			"unmet-need strategy",
			unmetDepsDoc,
			[]string{
				`unmet-need 4:23 strategy informed on branch "A" needs deps, which not every path to it gives`,
				`unmet-need 7:23 task "omp-parallel-loops" needs deps, which not every path to it gives`,
			},
		},
		{
			"unmet-need when",
			unmetWhenDoc,
			[]string{`unmet-need 4:8 task "pointer-analysis" needs kernel, which not every path to it gives`},
		},
		{
			"unmet-need branch arm",
			unmetArmDoc,
			[]string{`unmet-need 7:8 task "render-design" needs target and device, which not every path to it gives`},
		},
		{
			"unmet-need device",
			noDeviceDoc,
			[]string{`unmet-need 6:8 task "render-design" needs device, which not every path to it gives`},
		},
		{
			"target-twice",
			targetTwiceDoc,
			[]string{`target-twice 6:8 task "omp-parallel-loops" chooses target twice: a path chooses its target and its device once`},
		},
		{
			// A when on a device property may run, so what it chooses may
			// already be held after it.
			"target-twice when",
			"flow \"d\" {\n  task identify-hotspots\n  task extract-hotspot\n  task generate-oneapi\n" +
				"  branch \"C\" strategy all {\n    foreach dev in fpgas {\n      when dev.usm { task unroll-until-overmap(dev) }\n" +
				"      task unroll-until-overmap-sharing(dev)\n    }\n  }\n}",
			[]string{`target-twice 8:12 task "unroll-until-overmap-sharing" chooses device twice: a path chooses its target and its device once`},
		},
		{
			// A branch may hand on the design a path of it chose for.
			"target-twice after branch",
			"flow \"d\" {\n  task identify-hotspots\n  task extract-hotspot\n" +
				"  branch \"A\" strategy all {\n    path \"x\" { task generate-hip }\n  }\n  task generate-oneapi\n}",
			[]string{`target-twice 7:8 task "generate-oneapi" chooses target twice: a path chooses its target and its device once`},
		},
		{
			// A def used twice is reported once, at its own task.
			"unmet-need def",
			"def \"k\" { task pointer-analysis }\nflow \"d\" {\n  use \"k\"\n  use \"k\"\n}",
			[]string{`unmet-need 1:16 task "pointer-analysis" needs kernel, which not every path to it gives`},
		},
	}
	for _, tc := range cases {
		diags := validate(t, tc.src)
		if tc.want == nil {
			// Prefix-only check for messages embedding foreign error text.
			if len(diags) != 1 || diags[0].Code != flowlang.ErrBadSetting ||
				!strings.HasPrefix(diags[0].Msg, `invalid faults spec "rate=nope"`) {
				t.Errorf("%s: diags = %v", tc.name, diags)
			}
			continue
		}
		if len(diags) != len(tc.want) {
			t.Errorf("%s: got %d diags %v, want %d", tc.name, len(diags), diags, len(tc.want))
			continue
		}
		for i, d := range diags {
			got := d.Code + " " + d.Pos.String() + " " + d.Msg
			if got != tc.want[i] {
				t.Errorf("%s[%d]:\n got %q\nwant %q", tc.name, i, got, tc.want[i])
			}
		}
	}
}

// TestValidateReportsAll checks the validator reports every error in one
// pass, sorted by source position — not just the first.
func TestValidateReportsAll(t *testing.T) {
	src := `flow "d" {
  budget 0
  task frobnicate
  when turbo { task blocksize-dse }
  use "missing"
}`
	diags := validate(t, src)
	wantCodes := []string{
		flowlang.ErrBadSetting,       // 2:10
		flowlang.ErrUnknownTask,      // 3:8
		flowlang.ErrUnknownCondition, // 4:8
		flowlang.ErrTaskNeedsDevice,  // 4:21
		flowlang.ErrUnknownDef,       // 5:7
	}
	if len(diags) != len(wantCodes) {
		t.Fatalf("got %d diags %v, want %d", len(diags), diags, len(wantCodes))
	}
	for i, d := range diags {
		if d.Code != wantCodes[i] {
			t.Errorf("diag %d = %s at %s, want %s", i, d.Code, d.Pos, wantCodes[i])
		}
		if i > 0 {
			prev := diags[i-1].Pos
			if d.Pos.Line < prev.Line || (d.Pos.Line == prev.Line && d.Pos.Col < prev.Col) {
				t.Errorf("diags not sorted: %s before %s", prev, d.Pos)
			}
		}
	}
}

// TestValidateWhenOnOption: a when on a flow option runs or not as the
// job's options decide, so the checker reads it under each mode × sharing.
// Two whens on opposite options together give their facts to what follows,
// and each may choose the device once (paper.psa's branch point C); a
// fact given under one option alone is still unmet under the other.
func TestValidateWhenOnOption(t *testing.T) {
	ok := "flow \"d\" {\n  task identify-hotspots\n  when informed { task extract-hotspot }\n" +
		"  when uninformed { task extract-hotspot }\n  task generate-oneapi\n" +
		"  branch \"C\" strategy all {\n    foreach dev in fpgas {\n" +
		"      when sharing { task unroll-until-overmap-sharing(dev) }\n" +
		"      when !sharing { task unroll-until-overmap(dev) }\n      task render-design\n    }\n  }\n}"
	if diags := validate(t, ok); diags != nil {
		t.Errorf("complementary whens: %v", diags)
	}
	one := "flow \"d\" {\n  task identify-hotspots\n  task extract-hotspot\n  task generate-hip\n" +
		"  when sharing { task num-threads-dse }\n  task render-design\n}"
	diags := validate(t, one)
	want := `unmet-need 6:8 task "render-design" needs device, which not every path to it gives`
	if len(diags) != 1 || diags[0].Code+" "+diags[0].Pos.String()+" "+diags[0].Msg != want {
		t.Errorf("one-sided when: %v, want %s", diags, want)
	}
}

func TestValidateExamplesClean(t *testing.T) {
	for _, name := range []string{"paper.psa", "minimal.psa", "faults.psa"} {
		f, err := flowlang.Parse(readExample(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := flowlang.Validate(f); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestErrorCodesComplete keeps ErrorCodes in sync with the catalog: every
// code the validator can emit is listed exactly once.
func TestErrorCodesComplete(t *testing.T) {
	codes := flowlang.ErrorCodes()
	seen := map[string]bool{}
	for _, c := range codes {
		if seen[c] {
			t.Errorf("duplicate code %q", c)
		}
		seen[c] = true
	}
	if len(codes) != 26 {
		t.Errorf("ErrorCodes() has %d entries, want 26", len(codes))
	}
}
