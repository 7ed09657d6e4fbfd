package experiments

import (
	"fmt"
	"strings"
)

// Fig. 6 of the paper plots the relative cost of FPGA vs GPU execution as
// the resource price ratio varies: cost_FPGA / cost_GPU = (T_FPGA × ρ) /
// T_GPU where ρ is the FPGA-second price in GPU-seconds. The crossover
// (relative cost = 1) falls exactly at ρ* = T_GPU / T_FPGA = speedup_FPGA
// / speedup_GPU, so the paper's observations follow directly from Fig. 5:
// AdPredictor crosses near ρ ≈ 3.2 and Bezier near 1/ρ ≈ 2.5.

// Fig6Series is the cost-ratio curve for one application, comparing the
// Stratix 10 CPU+FPGA design to the RTX 2080 Ti CPU+GPU design.
type Fig6Series struct {
	Benchmark   string
	SpeedupFPGA float64 // Stratix 10 design speedup (Fig. 5)
	SpeedupGPU  float64 // RTX 2080 Ti design speedup (Fig. 5)
	// Crossover is the FPGA/GPU price ratio at which both cost the same;
	// above it the GPU is more cost effective.
	Crossover float64
	// PriceRatios and RelCost sample the curve: RelCost[i] =
	// cost(FPGA)/cost(GPU) at PriceRatios[i].
	PriceRatios []float64
	RelCost     []float64
}

// Fig6PriceRatios is the sweep of FPGA-vs-GPU price ratios shown on the
// paper's x-axis (1/4 … 4).
var Fig6PriceRatios = []float64{0.25, 1.0 / 3, 0.5, 1, 2, 3, 4}

// RunFig6 derives the cost trade-off curves from Fig. 5 rows for the
// applications the paper plots (those with feasible designs on both the
// Stratix 10 and the RTX 2080 Ti).
func RunFig6(rows []Fig5Row) []Fig6Series {
	var out []Fig6Series
	for _, r := range rows {
		if r.S10 <= 0 || r.RTX2080 <= 0 {
			continue // no synthesizable FPGA design (Rush Larsen)
		}
		s := Fig6Series{
			Benchmark:   r.Benchmark,
			SpeedupFPGA: r.S10,
			SpeedupGPU:  r.RTX2080,
			Crossover:   r.S10 / r.RTX2080,
			PriceRatios: Fig6PriceRatios,
		}
		// T_FPGA / T_GPU = speedupGPU / speedupFPGA.
		timeRatio := r.RTX2080 / r.S10
		for _, rho := range Fig6PriceRatios {
			s.RelCost = append(s.RelCost, timeRatio*rho)
		}
		out = append(out, s)
	}
	return out
}

// FormatFig6 renders the curves and crossovers.
func FormatFig6(series []Fig6Series) string {
	var sb strings.Builder
	sb.WriteString("relative cost of FPGA (Stratix 10) vs GPU (RTX 2080 Ti) execution\n")
	fmt.Fprintf(&sb, "%-12s", "price ratio")
	for _, rho := range Fig6PriceRatios {
		fmt.Fprintf(&sb, "%8.2f", rho)
	}
	fmt.Fprintf(&sb, "%12s\n", "crossover")
	for _, s := range series {
		fmt.Fprintf(&sb, "%-12s", s.Benchmark)
		for _, rel := range s.RelCost {
			fmt.Fprintf(&sb, "%8.2f", rel)
		}
		fmt.Fprintf(&sb, "%12.2f\n", s.Crossover)
	}
	sb.WriteString("\nrelative cost < 1: FPGA is more cost effective; > 1: GPU is.\n")
	sb.WriteString("paper: AdPredictor crossover ≈ 3.2 (FPGA faster but loses above it);\n")
	sb.WriteString("paper: Bezier crossover ≈ 1/2.5 (GPU faster but loses when GPU price > 2.5x).\n")
	return sb.String()
}
