package experiments

import (
	"fmt"
	"strings"
)

// Table1Row is one benchmark's added-LOC record (paper Table I): the
// percentage of reference lines added by each generated design, and the
// total across the five designs. Unsynthesizable designs (Rush Larsen's
// CPU+FPGA pair) are excluded, as in the paper.
type Table1Row struct {
	Benchmark string
	RefLOC    int
	OMP       float64 // percent added LOC
	HIP1080   float64
	HIP2080   float64
	A10       float64
	S10       float64
	Total     float64
	Excluded  []string // devices excluded because the design is unsynthesizable
}

// Table1 regenerates Table I from the Fig. 5 rows, whose uninformed designs
// are the five generated per benchmark: each rendered design is measured
// against the reference source line count.
func Table1(fig5 []Fig5Row) []Table1Row {
	var rows []Table1Row
	for _, f := range fig5 {
		row := Table1Row{Benchmark: f.Benchmark}
		for _, r := range f.Designs {
			d := r.Design
			row.RefLOC = d.RefLOC
			if d.Infeasible != "" || d.Artifact == nil {
				if d.Device != "" {
					row.Excluded = append(row.Excluded, d.Device)
				}
				continue
			}
			pct := 100 * float64(d.Artifact.AddedLOC) / float64(d.RefLOC)
			if c := column(d); c >= 0 {
				*row.cols()[c] = pct
			}
			row.Total += pct
		}
		rows = append(rows, row)
	}
	return rows
}

// Table1Average computes the per-column averages (the paper's final row).
// Columns with excluded designs contribute only their present values.
func Table1Average(rows []Table1Row) Table1Row {
	avg := Table1Row{Benchmark: "average"}
	if len(rows) == 0 {
		return avg
	}
	var counts [5]float64
	sums := avg.cols()
	for i := range rows {
		for c, v := range rows[i].cols() {
			*sums[c] += *v
			if *v > 0 {
				counts[c]++
			}
		}
		avg.Total += rows[i].Total
	}
	for c, sum := range sums {
		if counts[c] == 0 {
			*sum = 0
		} else {
			*sum /= counts[c]
		}
	}
	avg.Total /= float64(len(rows))
	return avg
}

// cols are the row's five design columns, in the order column numbers them.
func (r *Table1Row) cols() [5]*float64 {
	return [...]*float64{&r.OMP, &r.HIP1080, &r.HIP2080, &r.A10, &r.S10}
}

// paperTable1 records the paper's Table I percentages.
var paperTable1 = map[string][6]float64{
	//              omp  1080 2080  a10  s10 total
	"rushlarsen":  {0.4, 6, 6, 0, 0, 0},
	"nbody":       {2, 37, 37, 52, 69, 197},
	"bezier":      {2, 26, 26, 34, 42, 130},
	"adpredictor": {2, 31, 31, 42, 63, 169},
	"kmeans":      {4, 81, 81, 101, 147, 414},
}

// PaperTable1 exposes the paper's Table I row for a benchmark:
// OMP, HIP-1080, HIP-2080, oneAPI-A10, oneAPI-S10, total.
func PaperTable1(name string) ([6]float64, bool) {
	v, ok := paperTable1[name]
	return v, ok
}

// FormatTable1 renders the measured-vs-paper added-LOC table.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %6s %8s %8s %8s %8s %8s %8s\n",
		"benchmark", "refLOC", "OMP", "HIP1080", "HIP2080", "A10", "S10", "total")
	pct := func(v float64) string {
		if v == 0 {
			return "n/a"
		}
		return fmt.Sprintf("+%.0f%%", v)
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %6d %8s %8s %8s %8s %8s %8s\n",
			r.Benchmark, r.RefLOC, pct(r.OMP), pct(r.HIP1080), pct(r.HIP2080),
			pct(r.A10), pct(r.S10), pct(r.Total))
		if p, ok := PaperTable1(r.Benchmark); ok {
			fmt.Fprintf(&sb, "%-12s %6s %8s %8s %8s %8s %8s %8s\n",
				"  (paper)", "", pct(p[0]), pct(p[1]), pct(p[2]), pct(p[3]), pct(p[4]), pct(p[5]))
		}
	}
	avg := Table1Average(rows)
	fmt.Fprintf(&sb, "%-12s %6s %8s %8s %8s %8s %8s %8s\n",
		"average", "", pct(avg.OMP), pct(avg.HIP1080), pct(avg.HIP2080),
		pct(avg.A10), pct(avg.S10), pct(avg.Total))
	fmt.Fprintf(&sb, "%-12s %6s %8s %8s %8s %8s %8s %8s\n",
		"  (paper)", "", "+2%", "+36%", "+36%", "+57%", "+81%", "+212%")
	return sb.String()
}
