package experiments

import "encoding/json"

// Export DTOs: trimmed, stable JSON shapes for downstream tooling
// (plotting scripts, CI dashboards). The full Design objects carry ASTs
// and are not serialized; the DTOs capture what the paper's tables and
// figures report.

// DesignJSON summarizes one generated design.
type DesignJSON struct {
	Label        string  `json:"label"`
	Target       string  `json:"target"`
	Device       string  `json:"device,omitempty"`
	Speedup      float64 `json:"speedup"`
	KernelTime   float64 `json:"kernel_time_s"`
	TransferTime float64 `json:"transfer_time_s"`
	Overhead     float64 `json:"overhead_s"`
	TotalTime    float64 `json:"total_time_s"`
	Note         string  `json:"note,omitempty"`
	Infeasible   string  `json:"infeasible,omitempty"`
	NumThreads   int     `json:"num_threads,omitempty"`
	Blocksize    int     `json:"blocksize,omitempty"`
	UnrollFactor int     `json:"unroll_factor,omitempty"`
	ZeroCopy     bool    `json:"zero_copy,omitempty"`
	Pinned       bool    `json:"pinned,omitempty"`
	GeneratedLOC int     `json:"generated_loc,omitempty"`
	AddedLOC     int     `json:"added_loc,omitempty"`
}

// Fig5JSON is one benchmark's Fig. 5 record.
type Fig5JSON struct {
	Benchmark  string       `json:"benchmark"`
	AutoTarget string       `json:"auto_target"`
	Auto       float64      `json:"auto_speedup"`
	OMP        float64      `json:"omp"`
	GTX1080    float64      `json:"gtx1080"`
	RTX2080    float64      `json:"rtx2080"`
	A10        float64      `json:"a10"`
	S10        float64      `json:"s10"`
	A10Overmap bool         `json:"a10_overmap"`
	S10Overmap bool         `json:"s10_overmap"`
	Paper      []float64    `json:"paper,omitempty"` // auto, omp, 1080, 2080, a10, s10
	Designs    []DesignJSON `json:"designs"`
}

// ReportJSON is the full evaluation export.
type ReportJSON struct {
	Fig5      []Fig5JSON    `json:"fig5,omitempty"`
	Table1    []Table1Row   `json:"table1,omitempty"`
	Fig6      []Fig6Series  `json:"fig6,omitempty"`
	Ablations []AblationRow `json:"ablations,omitempty"`
}

// designJSON converts one evaluated design.
func designJSON(r DesignResult) DesignJSON {
	d := r.Design
	out := DesignJSON{
		Label:        d.Label(),
		Target:       d.TargetName(),
		Device:       d.Device,
		Speedup:      r.Speedup,
		KernelTime:   r.Breakdown.KernelTime,
		TransferTime: r.Breakdown.TransferTime,
		Overhead:     r.Breakdown.Overhead,
		TotalTime:    r.Breakdown.Total,
		Note:         r.Breakdown.Note,
		Infeasible:   d.Infeasible,
		NumThreads:   d.NumThreads,
		Blocksize:    d.Blocksize,
		UnrollFactor: d.UnrollFactor,
		ZeroCopy:     d.ZeroCopy,
		Pinned:       d.Pinned,
	}
	if d.Artifact != nil {
		out.GeneratedLOC = d.Artifact.LOC
		out.AddedLOC = d.Artifact.AddedLOC
	}
	return out
}

// Fig5ToJSON converts harness rows to the export shape.
func Fig5ToJSON(rows []Fig5Row) []Fig5JSON {
	out := make([]Fig5JSON, 0, len(rows))
	for _, r := range rows {
		j := Fig5JSON{
			Benchmark:  r.Benchmark,
			AutoTarget: r.AutoTarget,
			Auto:       r.Auto,
			OMP:        r.OMP,
			GTX1080:    r.GTX1080,
			RTX2080:    r.RTX2080,
			A10:        r.A10,
			S10:        r.S10,
			A10Overmap: r.A10Overmap,
			S10Overmap: r.S10Overmap,
		}
		if p, ok := PaperFig5(r.Benchmark); ok {
			j.Paper = p[:]
		}
		for _, dr := range r.Designs {
			j.Designs = append(j.Designs, designJSON(dr))
		}
		out = append(out, j)
	}
	return out
}

// MarshalReport renders the full evaluation as indented JSON.
func MarshalReport(rep ReportJSON) ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}
