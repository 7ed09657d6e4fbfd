package telemetry

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
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
//
// The recorder's mutex is held throughout, so no span starts meanwhile and
// the tree has exactly nspans nodes. They are laid out in one slice, each
// span's children contiguous and cut at capacity; the Stats aggregate in
// one slice too, so a snapshot's allocations do not grow with its spans
// (only a span's notes are rendered, a slice per span that has any and a
// string per note).
func (r *Recorder) Snapshot() *Report {
	if r == nil {
		return &Report{Counters: map[string]int64{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &Report{Counters: make(map[string]int64, len(r.counters))}
	for k, v := range r.counters {
		rep.Counters[k] = v
	}
	if r.nspans == 0 {
		return rep
	}
	all := make([]SpanSnapshot, r.nspans)
	rep.Spans = all[:r.roots.nchildren:r.roots.nchildren]
	rep.Stats = make([]Stat, 0, r.nspans)
	r.roots.snapshotChildren(rep.Spans, all[r.roots.nchildren:], &rep.Stats)
	// Longest first; Name, then Kind, break ties, so the order is total.
	slices.SortFunc(rep.Stats, func(a, b Stat) int {
		return cmp.Or(cmp.Compare(b.Millis, a.Millis), strings.Compare(a.Name, b.Name), strings.Compare(a.Kind, b.Kind))
	})
	return rep
}

// snapshotChildren writes the span's children into out, depth first, and
// lays their own children out in free, returning what is left of it.
// Each child is aggregated into stats as it is written. The caller holds
// the recorder's mutex.
func (p *Span) snapshotChildren(out, free []SpanSnapshot, stats *[]Stat) []SpanSnapshot {
	i := 0
	for s := p.first; s != nil; s = s.next {
		o := &out[i]
		i++
		o.Kind, o.Name = s.Kind, s.Name
		o.Millis = float64(s.Duration()) / float64(time.Millisecond)
		s.mu.Lock()
		o.Detail = s.Detail
		if len(s.notes) > 0 {
			o.Notes = make([]string, len(s.notes))
			var buf [192]byte
			for i := range s.notes {
				o.Notes[i] = string(s.notes[i].Append(buf[:0]))
			}
		}
		s.mu.Unlock()
		addStat(stats, s.Kind, s.Name, o.Millis)
		if n := s.nchildren; n > 0 {
			o.Children = free[:n:n]
			free = s.snapshotChildren(o.Children, free[n:], stats)
		}
	}
	return free
}

// addStat adds one call of ms to the (kind, name) row of stats, appending
// the row if it is new. A job has a few dozen distinct names, so a linear
// search beats a map.
func addStat(stats *[]Stat, kind, name string, ms float64) {
	for i := range *stats {
		if st := &(*stats)[i]; st.Name == name && st.Kind == kind {
			st.Calls++
			st.Millis += ms
			return
		}
	}
	*stats = append(*stats, Stat{Kind: kind, Name: name, Calls: 1, Millis: ms})
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
