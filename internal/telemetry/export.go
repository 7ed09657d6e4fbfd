package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// SpanSnapshot is the exportable form of one span (JSON tree node).
type SpanSnapshot struct {
	Kind   string  `json:"kind"`
	Name   string  `json:"name"`
	Detail string  `json:"detail,omitempty"`
	Millis float64 `json:"ms"`
	// Notes carries the span's resilience annotations (retries, timeouts,
	// branch degradations) in the order they were recorded.
	Notes    []string       `json:"notes,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Stat aggregates all spans sharing one (kind, name) across the run —
// the "where does the sweep spend its time" view.
type Stat struct {
	Kind   string  `json:"kind"`
	Name   string  `json:"name"`
	Calls  int64   `json:"calls"`
	Millis float64 `json:"total_ms"`
}

// Report is a consistent snapshot of a recorder: the span forest, the
// per-(kind,name) aggregates, and the counters.
type Report struct {
	Spans    []SpanSnapshot   `json:"spans"`
	Stats    []Stat           `json:"stats"`
	Counters map[string]int64 `json:"counters"`
}

// Snapshot captures the recorder's current state. Open spans report their
// elapsed-so-far duration. Nil recorder yields an empty report.
func (r *Recorder) Snapshot() *Report {
	rep := &Report{Counters: map[string]int64{}}
	if r == nil {
		return rep
	}
	r.mu.Lock()
	roots := append([]*Span(nil), r.roots...)
	for k, v := range r.counters {
		rep.Counters[k] = v
	}
	r.mu.Unlock()

	agg := map[[2]string]*Stat{}
	var snap func(s *Span) SpanSnapshot
	snap = func(s *Span) SpanSnapshot {
		out := SpanSnapshot{
			Kind:   s.Kind,
			Name:   s.Name,
			Detail: s.Detail,
			Millis: float64(s.Duration()) / float64(time.Millisecond),
		}
		key := [2]string{s.Kind, s.Name}
		st, ok := agg[key]
		if !ok {
			st = &Stat{Kind: s.Kind, Name: s.Name}
			agg[key] = st
		}
		st.Calls++
		st.Millis += out.Millis
		s.mu.Lock()
		children := append([]*Span(nil), s.children...)
		out.Notes = append([]string(nil), s.notes...)
		s.mu.Unlock()
		for _, c := range children {
			out.Children = append(out.Children, snap(c))
		}
		return out
	}
	for _, root := range roots {
		rep.Spans = append(rep.Spans, snap(root))
	}
	for _, st := range agg {
		rep.Stats = append(rep.Stats, *st)
	}
	sort.Slice(rep.Stats, func(i, j int) bool {
		if rep.Stats[i].Millis != rep.Stats[j].Millis {
			return rep.Stats[i].Millis > rep.Stats[j].Millis
		}
		return rep.Stats[i].Name < rep.Stats[j].Name
	})
	return rep
}

// JSON marshals the report (indented, stable field order).
func (rep *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}

// WriteReports ends a CLI run that was given -metrics and/or -metrics-json:
// it prints the text report to w when text is set, and writes the JSON
// report to jsonPath when that is non-empty, naming the file on w. A nil
// recorder (neither flag given) writes nothing.
func (r *Recorder) WriteReports(w io.Writer, text bool, jsonPath string) error {
	if r == nil {
		return nil
	}
	rep := r.Snapshot()
	if text {
		fmt.Fprintln(w, rep.Text())
	}
	if jsonPath != "" {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", jsonPath)
	}
	return nil
}

// Text renders the human report: per-task timing aggregates first (the
// answer to "where does the uninformed sweep spend its time"), then the
// branch/path/flow aggregates, then the counters.
func (rep *Report) Text() string {
	var sb strings.Builder
	sb.WriteString("== flow telemetry ==\n")
	section := func(kind, title string) {
		rows := make([]Stat, 0, len(rep.Stats))
		for _, st := range rep.Stats {
			if st.Kind == kind {
				rows = append(rows, st)
			}
		}
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(&sb, "%s:\n", title)
		fmt.Fprintf(&sb, "  %-52s %7s %12s %12s\n", kind, "calls", "total", "mean")
		for _, st := range rows {
			total := time.Duration(st.Millis * float64(time.Millisecond))
			mean := time.Duration(0)
			if st.Calls > 0 {
				mean = total / time.Duration(st.Calls)
			}
			fmt.Fprintf(&sb, "  %-52s %7d %12s %12s\n",
				st.Name, st.Calls, total.Round(time.Microsecond), mean.Round(time.Microsecond))
		}
	}
	section(KindTask, "per-task wall clock")
	section(KindPath, "per-path wall clock")
	section(KindBranch, "per-branch-point wall clock")
	section(KindFlow, "per-flow wall clock")
	if len(rep.Counters) > 0 {
		sb.WriteString("counters:\n")
		names := make([]string, 0, len(rep.Counters))
		for k := range rep.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&sb, "  %-52s %12d\n", k, rep.Counters[k])
		}
	}
	return sb.String()
}
