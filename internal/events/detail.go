package events

import "strconv"

// Format is an entry of the one fixed table of what a flow says happened:
// the trace lines a design records (core.Design.Record), the details of the
// events the engine emits (telemetry.Recorder.Emit), the notes of its spans
// (telemetry.Span.Note) and the details of every frame a job's stream
// carries, the serving layer's lifecycle frames included. An event keeps
// its format and its operands — the strings and numbers the format's verbs
// read — and its text is rendered only when something reads it (Append).
// The entry fixes the event's kind: a trace kind ("task", "branch", "dse",
// "note") or, for any other event, its type.
type Format uint8

// The table. Each entry's text is the fmt format it renders exactly as
// fmt.Sprintf did; the verbs it reads are %d and %t (numbers), %s, %q and
// %v (strings), %.Nf and %.Ng (numbers) and %%. Ints and bools are passed
// as float64 (Bool), which holds them exactly.
const (
	// FormatNone is the zero event: no kind and no detail.
	FormatNone Format = iota

	TaskKind // the paper's one-letter class of the task that ran

	NoteHotspot
	NoteExtract
	NoteAI
	NoteDataInOut
	NoteDeps
	NoteTrips
	NotePlusEq
	NoteUnrollFixed
	NoteRender
	NoteSPFns
	NoteSPLiterals
	NoteSharedMem
	NoteFastMath

	DSENumThreads
	DSEUnrollStep
	DSEUnrollOvermap
	DSEUnrollFinal
	DSESharingRolled
	DSESharingFinal
	DSEBlocksize

	BranchInputs
	BranchTerminates
	BranchSelected
	BranchDegraded
	BranchOverBudget
	BranchFallback
	BranchRevision
	BranchNoPath
	// BranchText is a branch line its recorder wrote itself: a selector
	// outside the bundled tasks has no entry of its own in the table.
	BranchText

	FaultInjected
	RetryScheduled
	Decision
	// DecisionJoined is Decision with its path list rendered beforehand
	// (AppendList), for a branch of more paths than a Detail holds.
	DecisionJoined
	PathDegraded
	ThreadsSwept
	UnrollStep
	SharingStep
	NoBlocksize
	BlocksizeSwept

	// A task span's closing and any span's notes, sent by the telemetry
	// recorder; a task span's opening (task_start) has no detail.
	TaskEnded
	NoteRetry
	NoteGaveUp
	NoteBudgetSpent
	NotePathDegraded
	NoteFallback

	// A job's lifecycle frames, published by the serving layer.
	JobQueued
	JobStarted
	JobBatched
	JobDone
	JobFailed
	JobCancelled

	numFormats
)

// entry is one row of the table. list marks a format whose last string
// verb reads every string left — a %v list renders as fmt prints a
// []string, a %q list each string quoted and joined by ", ".
type entry struct {
	kind string
	text string
	list bool
}

var table = [numFormats]entry{
	FormatNone: {},
	TaskKind:   {"task", "%s", false},

	NoteHotspot:     {"note", "loop #%d in %s at %d:%d: %.1f%% of %.3g cycles", false},
	NoteExtract:     {"note", "kernel %s(%d params) outlined from %s", false},
	NoteAI:          {"note", "static FLOPs/B = %.3f", false},
	NoteDataInOut:   {"note", "in=%.0fB out=%.0fB traffic=%.0fB dynAI=%.2f", false},
	NoteDeps:        {"note", "outer parallel=%t reductionOnly=%t innerWithDeps=%d allDepsFixed=%t regs=%d", false},
	NoteTrips:       {"note", "outer=%.0f pipelined=%.0f serialDepth=%.1f", false},
	NotePlusEq:      {"note", "%d accumulation(s) rewritten", false},
	NoteUnrollFixed: {"note", "%d inner loops fully unrolled", false},
	NoteRender:      {"note", "%s design: %d LOC (+%d over reference)", false},
	NoteSPFns:       {"note", "%d calls demoted", false},
	NoteSPLiterals:  {"note", "%d literals demoted", false},
	NoteSharedMem:   {"note", "staged arrays: %v", true},
	NoteFastMath:    {"note", "%d intrinsics installed", false},

	DSENumThreads:    {"dse", "best=%d time=%.3gs", false},
	DSEUnrollStep:    {"dse", "n=%d LUT=%.1f%% DSP=%.1f%% fits=%t", false},
	DSEUnrollOvermap: {"dse", "design exceeds device capacity; not synthesizable", false},
	DSEUnrollFinal:   {"dse", "final unroll=%d II=%d est=%.3gs (%s)", false},
	DSESharingRolled: {"dse", "%d fixed loop(s) rolled; pipeline pays x%.0f trips", false},
	DSESharingFinal:  {"dse", "final: unroll=%d II=%d est=%.3gs", false},
	DSEBlocksize:     {"dse", "best=%d time=%.3gs (%s)", false},

	BranchInputs:     {"branch", "Tcpu=%.4gs Tdata=%.4gs AI=%.2f (X=%.2f) parallel=%t innerDeps=%d fullyUnrollable=%t", false},
	BranchTerminates: {"branch", "not worth offloading and not parallel: flow terminates", false},
	BranchSelected:   {"branch", "selected path %q (strategy %s)", false},
	BranchDegraded:   {"branch", "degraded: %v", false},
	BranchOverBudget: {"branch", "cost %.4g exceeds budget %.4g", false},
	BranchFallback:   {"branch", "fallback %d: path %q failed, re-selecting", false},
	BranchRevision:   {"branch", "revision %d: all selected paths over budget, re-selecting", false},
	BranchNoPath:     {"branch", "no path selected; design unmodified", false},
	BranchText:       {"branch", "%s", false},

	FaultInjected:  {TypeFaultInjected, "%v", false},
	RetryScheduled: {TypeRetry, "attempt %d failed (%v); retrying after %s", false},
	Decision:       {TypeBranchDecision, "strategy %s selected %q", true},
	DecisionJoined: {TypeBranchDecision, "strategy %s selected %s", false},
	PathDegraded:   {TypeDegraded, "%v", false},
	ThreadsSwept:   {TypeDSEProgress, "swept %d thread counts on %s: best=%d (%.3gs)", false},
	UnrollStep:     {TypeDSEProgress, "%s: n=%d LUT=%.1f%% DSP=%.1f%% fits=%t", false},
	SharingStep:    {TypeDSEProgress, "%s: %d loop(s) time-multiplexed, fits=%t", false},
	NoBlocksize:    {TypeDSEProgress, "%s: no feasible blocksize among %d candidates", false},
	BlocksizeSwept: {TypeDSEProgress, "%s: swept %d candidates, best=%d (%.3gs)", false},

	TaskEnded:        {TypeTaskEnd, "%s", false},
	NoteRetry:        {TypeNote, "retry %d after %v (backoff %s)", false},
	NoteGaveUp:       {TypeNote, "gave up after %d attempts: %v", false},
	NoteBudgetSpent:  {TypeNote, "retry budget exhausted after attempt %d: %v", false},
	NotePathDegraded: {TypeNote, "path %q degraded: %v", false},
	NoteFallback:     {TypeNote, "fallback %d: re-selecting without path %q", false},

	JobQueued:    {TypeQueued, "%s", false},
	JobStarted:   {TypeStarted, "waited %.0fms in queue", false},
	JobBatched:   {TypeStarted, "batched behind leader %s (waited %.0fms in queue)", false},
	JobDone:      {TypeDone, "%s", false},
	JobFailed:    {TypeFailed, "%s", false},
	JobCancelled: {TypeCancelled, "%s", false},
}

// Bool is b as a numeric operand: 1 or 0, which %t reads back.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Kind is the kind f fixes for its events.
func (f Format) Kind() string { return table[f].kind }

// operands counts the string and the numeric verbs of f's text. A list
// format reads at least strs-1 strings.
func (f Format) operands() (strs, nums int) {
	text := table[f].text
	for i := 0; i < len(text); i++ {
		if text[i] != '%' {
			continue
		}
		i++
		switch text[i] {
		case 's', 'q', 'v':
			strs++
		case 'd', 't', '.':
			nums++
		}
	}
	return strs, nums
}

// Append appends f's text with strs and nums in place of its verbs, in
// order, to dst: exactly what fmt.Sprintf writes for the same operands.
// An operand the event lacks is written as fmt writes a missing one.
func (f Format) Append(dst []byte, strs []string, nums []float64) []byte {
	e := &table[f]
	text := e.text
	lastStr := -1
	if e.list {
		n, _ := f.operands()
		lastStr = n - 1
	}
	si, ni := 0, 0
	for i := 0; i < len(text); i++ {
		start := i
		for i < len(text) && text[i] != '%' {
			i++
		}
		dst = append(dst, text[start:i]...)
		if i == len(text) {
			break
		}
		i++
		verb := text[i]
		prec := -1
		if verb == '.' {
			prec, verb = int(text[i+1]-'0'), text[i+2]
			i += 2
		}
		switch verb {
		case '%':
			dst = append(dst, '%')
		case 's', 'q', 'v':
			switch {
			case si == lastStr:
				dst = AppendList(dst, verb, strs[min(si, len(strs)):])
				si = len(strs)
			case si < len(strs):
				dst = appendStr(dst, verb, strs[si])
				si++
			default:
				dst = appendMissing(dst, verb)
			}
		default:
			if ni == len(nums) {
				dst = appendMissing(dst, verb)
				continue
			}
			x := nums[ni]
			ni++
			switch verb {
			case 'd':
				dst = strconv.AppendInt(dst, int64(x), 10)
			case 't':
				dst = strconv.AppendBool(dst, x != 0)
			default: // 'f' or 'g', with a precision
				dst = strconv.AppendFloat(dst, x, verb, prec, 64)
			}
		}
	}
	return dst
}

func appendStr(dst []byte, verb byte, s string) []byte {
	if verb == 'q' {
		return strconv.AppendQuote(dst, s)
	}
	return append(dst, s...)
}

// AppendList appends strs as a list format's last verb renders them: for
// %q each quoted and joined by ", ", else as fmt prints a []string.
func AppendList(dst []byte, verb byte, strs []string) []byte {
	if verb == 'q' {
		for k, s := range strs {
			if k > 0 {
				dst = append(dst, ", "...)
			}
			dst = strconv.AppendQuote(dst, s)
		}
		return dst
	}
	dst = append(dst, '[')
	for k, s := range strs {
		if k > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, s...)
	}
	return append(dst, ']')
}

func appendMissing(dst []byte, verb byte) []byte {
	dst = append(dst, "%!"...)
	dst = append(dst, verb)
	return append(dst, "(MISSING)"...)
}

// The most operands an event's Detail carries.
const (
	MaxStrs = 4
	MaxNums = 8
)

// Detail is an event's detail as its format and operands, carried by
// value: handing one to a sink allocates nothing, and the frame it ends in
// renders it (Append) when it is published.
type Detail struct {
	Format     Format
	nstr, nnum uint8
	strs       [MaxStrs]string
	nums       [MaxNums]float64
}

// NewDetail holds f's operands, copied. It panics on more than MaxStrs
// strings or MaxNums numbers: a list longer than that is joined first
// (DecisionJoined).
func NewDetail(f Format, strs []string, nums []float64) Detail {
	if len(strs) > MaxStrs || len(nums) > MaxNums {
		panic("events: " + strconv.Quote(table[f].text) + " given more operands than a detail holds")
	}
	d := Detail{Format: f, nstr: uint8(len(strs)), nnum: uint8(len(nums))}
	copy(d.strs[:], strs)
	copy(d.nums[:], nums)
	return d
}

// New is the event named name whose detail is f over strs and nums; f
// fixes its type.
func New(f Format, name string, strs []string, nums ...float64) Event {
	return Event{Type: f.Kind(), Name: name, Args: NewDetail(f, strs, nums)}
}

// Append appends the detail's text to dst.
func (d *Detail) Append(dst []byte) []byte {
	return d.Format.Append(dst, d.strs[:d.nstr], d.nums[:d.nnum])
}
