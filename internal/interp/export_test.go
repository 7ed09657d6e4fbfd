package interp

// WithQuickenThreshold returns cfg with the quickening trip point set:
// the per-instruction execution count after which a generic opcode is
// rewritten to its quickened form. Negative disables quickening; 0 is the
// default every non-test caller runs at.
func WithQuickenThreshold(cfg Config, threshold int) Config {
	cfg.quickenThreshold = threshold
	return cfg
}
