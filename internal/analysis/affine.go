// Package analysis implements the static analyses of the design-flow task
// repository: loop dependence analysis (with reduction recognition),
// static arithmetic intensity, operation counting / kernel feature
// extraction, and unrollability tests. Dynamic counterparts (hotspot
// timing, trip counts, data movement, alias observation) come from
// interp.Profile; the tasks layer fuses both into a KernelReport.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"psaflow/internal/minic"
)

// Affine is a multilinear form c0 + Σ coeff[t]·t where each term t is a
// product of variables (key "i", "i*m", ...). Products of variables are
// kept symbolically, which lets subscripts such as i*m + j be analyzed
// under the usual delinearization assumption (rows do not overlap). OK is
// false when the expression is not recognizable (division, modulo, calls);
// consumers must then be conservative.
type Affine struct {
	Const int64
	Coeff map[string]int64
	OK    bool
}

// AffineOf analyzes an integer index expression into a multilinear form.
// Supported: literals, identifiers, +, -, unary -, multiplication
// (distributed over terms), and casts.
func AffineOf(e minic.Expr) Affine {
	switch v := e.(type) {
	case *minic.IntLit:
		return Affine{Const: v.Val, Coeff: map[string]int64{}, OK: true}
	case *minic.Ident:
		return Affine{Coeff: map[string]int64{v.Name: 1}, OK: true}
	case *minic.UnaryExpr:
		if v.Op != minic.TokMinus {
			return Affine{}
		}
		a := AffineOf(v.X)
		if !a.OK {
			return Affine{}
		}
		return a.scaleConst(-1)
	case *minic.BinaryExpr:
		l := AffineOf(v.L)
		r := AffineOf(v.R)
		if !l.OK || !r.OK {
			return Affine{}
		}
		switch v.Op {
		case minic.TokPlus:
			return l.add(r, 1)
		case minic.TokMinus:
			return l.add(r, -1)
		case minic.TokStar:
			return l.mul(r)
		}
		return Affine{}
	case *minic.CastExpr:
		return AffineOf(v.X)
	}
	return Affine{}
}

func (a Affine) isConst() bool { return a.OK && len(a.Coeff) == 0 }

func (a Affine) add(b Affine, sign int64) Affine {
	out := Affine{Const: a.Const + sign*b.Const, Coeff: map[string]int64{}, OK: true}
	for k, v := range a.Coeff {
		out.Coeff[k] += v
	}
	for k, v := range b.Coeff {
		out.Coeff[k] += sign * v
	}
	out.normalize()
	return out
}

func (a Affine) scaleConst(c int64) Affine {
	out := Affine{Const: a.Const * c, Coeff: map[string]int64{}, OK: true}
	for k, v := range a.Coeff {
		out.Coeff[k] = v * c
	}
	out.normalize()
	return out
}

// mul distributes the product of two multilinear forms; degree grows, but
// terms stay symbolic products, e.g. (i+1)*m = i*m + m.
func (a Affine) mul(b Affine) Affine {
	out := Affine{Const: a.Const * b.Const, Coeff: map[string]int64{}, OK: true}
	for k, v := range a.Coeff {
		out.Coeff[k] += v * b.Const
	}
	for k, v := range b.Coeff {
		out.Coeff[k] += v * a.Const
	}
	for ka, va := range a.Coeff {
		for kb, vb := range b.Coeff {
			out.Coeff[mergeFactors(ka, kb)] += va * vb
		}
	}
	out.normalize()
	return out
}

// mergeFactors produces the canonical sorted factor-product key.
func mergeFactors(a, b string) string {
	fs := append(strings.Split(a, "*"), strings.Split(b, "*")...)
	sort.Strings(fs)
	return strings.Join(fs, "*")
}

func (a *Affine) normalize() {
	for k, v := range a.Coeff {
		if v == 0 {
			delete(a.Coeff, k)
		}
	}
}

// DependsOn reports whether any term contains variable v as a factor.
func (a Affine) DependsOn(v string) bool {
	if !a.OK {
		return false
	}
	for k := range a.Coeff {
		if termHasVar(k, v) {
			return true
		}
	}
	return false
}

// termHasVar reports whether v is one of the '*'-separated factors of term.
func termHasVar(term, v string) bool {
	for {
		i := strings.IndexByte(term, '*')
		if i < 0 {
			return term == v
		}
		if term[:i] == v {
			return true
		}
		term = term[i+1:]
	}
}

// samePart compares one half of the decomposition of two subscripts for
// the cross-iteration conflict test on the v loop, in place: with varPart
// the terms containing v, otherwise the v-invariant terms together with
// the constant (unless ignoreConst). It is the pairwise test's inner
// loop, so it builds no sub-form maps.
func samePart(a, b Affine, v string, varPart, ignoreConst bool) bool {
	n := 0
	for k, c := range a.Coeff {
		if termHasVar(k, v) != varPart {
			continue
		}
		if b.Coeff[k] != c {
			return false
		}
		n++
	}
	for k := range b.Coeff {
		if termHasVar(k, v) == varPart {
			n--
		}
	}
	return n == 0 && (varPart || ignoreConst || a.Const == b.Const)
}

func mapsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Equal reports whether two forms are identical.
func (a Affine) Equal(b Affine) bool {
	if !a.OK || !b.OK || a.Const != b.Const {
		return false
	}
	return mapsEqual(a.Coeff, b.Coeff)
}

// EqualModulo reports whether a and b agree on every term not containing v
// (used to compare subscripts across iterations of the v loop).
func (a Affine) EqualModulo(b Affine, v string) bool {
	if !a.OK || !b.OK {
		return false
	}
	return samePart(a, b, v, false, false)
}

// String renders the form for diagnostics.
func (a Affine) String() string {
	if !a.OK {
		return "<non-affine>"
	}
	var terms []string
	keys := make([]string, 0, len(a.Coeff))
	for k := range a.Coeff {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := a.Coeff[k]
		switch c {
		case 1:
			terms = append(terms, k)
		case -1:
			terms = append(terms, "-"+k)
		default:
			terms = append(terms, fmt.Sprintf("%d*%s", c, k))
		}
	}
	if a.Const != 0 || len(terms) == 0 {
		terms = append(terms, fmt.Sprintf("%d", a.Const))
	}
	return strings.Join(terms, " + ")
}
