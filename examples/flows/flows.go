// Package flows bundles paper.psa, the implemented PSA-flow of the paper's
// Fig. 4, into the binaries that run it as their built-in flow
// (flowlang.PSAFlow). The other documents here are examples only.
package flows

import _ "embed"

// Paper is the text of paper.psa.
//
//go:embed paper.psa
var Paper string
