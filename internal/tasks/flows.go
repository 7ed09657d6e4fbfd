package tasks

import "fmt"

// Mode selects how branch point A resolves (paper §IV-B).
type Mode int

// Flow execution modes.
const (
	// Informed applies the Fig. 3 PSA strategy at branch point A,
	// producing the designs of one target class.
	Informed Mode = iota
	// Uninformed selects every path at branch point A, producing all five
	// design versions.
	Uninformed
)

// String is the mode as the CLIs and the job API spell it.
func (m Mode) String() string {
	if m == Uninformed {
		return "uninformed"
	}
	return "informed"
}

// ParseMode reads a mode as the CLIs and the job API spell it; an empty
// string is Informed.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "informed":
		return Informed, nil
	case "uninformed":
		return Uninformed, nil
	}
	return Informed, fmt.Errorf("unknown mode %q", s)
}

// FlowOptions are the options every flow is lowered with (flowlang.Options
// is this type): a .psa document's when-conditions and "auto" strategies,
// the bundled Fig. 4 document's included, resolve against them.
type FlowOptions struct {
	Mode     Mode
	Strategy StrategyConfig // zero value = DefaultStrategy
	// ResourceSharing swaps the FPGA unroll DSE for the sharing-enabled
	// variant that can recover overmapped designs by time-multiplexing
	// fixed inner loops (paper §IV-B-iii's suggested remedy).
	ResourceSharing bool
}

// StrategyOrDefault is the one place a zero Strategy becomes
// DefaultStrategy.
func (o FlowOptions) StrategyOrDefault() StrategyConfig {
	if o.Strategy == (StrategyConfig{}) {
		return DefaultStrategy
	}
	return o.Strategy
}
