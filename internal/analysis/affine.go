// Package analysis implements the static analyses of the design-flow task
// repository: loop dependence analysis (with reduction recognition),
// static arithmetic intensity, operation counting / kernel feature
// extraction, and unrollability tests. Dynamic counterparts (hotspot
// timing, trip counts, data movement, alias observation) come from
// interp.Profile; the tasks layer fuses both into a KernelReport.
package analysis

import (
	"slices"
	"strconv"
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
	Terms []Term // sorted by Key, no zero coefficient
	OK    bool
}

// Term is one product term C·Key of a form; Key is its factors, sorted
// and joined by '*'.
type Term struct {
	Key string
	C   int64
}

// AffineOf analyzes an integer index expression into a multilinear form.
// Supported: literals, identifiers, +, -, unary -, multiplication
// (distributed over terms), and casts.
func AffineOf(e minic.Expr) Affine {
	var ev affineEval
	return ev.form(e)
}

// affineEval evaluates expressions into forms on one reusable stack of
// terms, where each subexpression leaves one sorted run, and cuts every
// finished form from an arena it owns. A loop's subscripts share one
// evaluator, so their forms share a few backing arrays.
type affineEval struct {
	stack []Term
	arena []Term
}

// form returns the affine form of e, its terms cut from the arena.
func (ev *affineEval) form(e minic.Expr) Affine {
	ev.stack = ev.stack[:0]
	c, ok := ev.eval(e)
	if !ok {
		return Affine{}
	}
	return Affine{Const: c, Terms: ev.cut(ev.stack), OK: true}
}

// cut copies ts into the arena and returns the copy, capped so that no
// append through it reaches the next form.
func (ev *affineEval) cut(ts []Term) []Term {
	if len(ts) == 0 {
		return nil
	}
	if cap(ev.arena)-len(ev.arena) < len(ts) {
		ev.arena = make([]Term, 0, max(2*cap(ev.arena), len(ts), 16))
	}
	n := len(ev.arena)
	ev.arena = append(ev.arena, ts...)
	return ev.arena[n:len(ev.arena):len(ev.arena)]
}

// eval pushes the terms of e onto the stack as one sorted run and returns
// its constant. When e is not affine it returns false and leaves the
// stack as it found it.
func (ev *affineEval) eval(e minic.Expr) (int64, bool) {
	s := len(ev.stack)
	switch v := e.(type) {
	case *minic.IntLit:
		return v.Val, true
	case *minic.Ident:
		ev.stack = append(ev.stack, Term{Key: v.Name, C: 1})
		return 0, true
	case *minic.UnaryExpr:
		if v.Op != minic.TokMinus {
			return 0, false
		}
		c, ok := ev.eval(v.X)
		if ok {
			ev.scale(s, -1)
		}
		return -c, ok
	case *minic.CastExpr:
		return ev.eval(v.X)
	case *minic.BinaryExpr:
		if v.Op != minic.TokPlus && v.Op != minic.TokMinus && v.Op != minic.TokStar {
			return 0, false
		}
		cl, ok := ev.eval(v.L)
		if !ok {
			return 0, false
		}
		m := len(ev.stack)
		cr, ok := ev.eval(v.R)
		if !ok {
			ev.stack = ev.stack[:s]
			return 0, false
		}
		switch v.Op {
		case minic.TokPlus:
			ev.add(s, m, 1)
			return cl + cr, true
		case minic.TokMinus:
			ev.add(s, m, -1)
			return cl - cr, true
		}
		ev.mul(s, m, cl, cr)
		return cl * cr, true
	}
	return 0, false
}

// scale multiplies the run from s to the top by c, dropping terms that
// reach zero.
func (ev *affineEval) scale(s int, c int64) {
	w := s
	for _, t := range ev.stack[s:] {
		if t.C *= c; t.C != 0 {
			ev.stack[w] = t
			w++
		}
	}
	ev.stack = ev.stack[:w]
}

// add replaces the runs a = stack[s:m] and b = stack[m:] by the run of
// a + sign·b: the two are merged above the top, then moved down.
func (ev *affineEval) add(s, m int, sign int64) {
	e := len(ev.stack)
	i, j := s, m
	for i < m || j < e {
		var t Term
		switch {
		case j == e || i < m && ev.stack[i].Key < ev.stack[j].Key:
			t = ev.stack[i]
			i++
		case i == m || ev.stack[j].Key < ev.stack[i].Key:
			t = Term{Key: ev.stack[j].Key, C: sign * ev.stack[j].C}
			j++
		default:
			t = Term{Key: ev.stack[i].Key, C: ev.stack[i].C + sign*ev.stack[j].C}
			i++
			j++
		}
		if t.C != 0 {
			ev.stack = append(ev.stack, t)
		}
	}
	ev.stack = ev.stack[:s+copy(ev.stack[s:], ev.stack[e:])]
}

// mul replaces the runs a = stack[s:m] (constant cl) and b = stack[m:]
// (constant cr) by the run of their product. A constant side scales the
// other run in place; only two non-constant sides distribute, building
// the product keys, e.g. (i+1)*m = i*m + m.
func (ev *affineEval) mul(s, m int, cl, cr int64) {
	e := len(ev.stack)
	switch {
	case m == e:
		ev.scale(s, cr)
		return
	case s == m:
		ev.scale(m, cl)
		ev.stack = ev.stack[:s+copy(ev.stack[s:], ev.stack[m:])]
		return
	}
	for _, t := range ev.stack[s:m] {
		ev.stack = append(ev.stack, Term{Key: t.Key, C: t.C * cr})
	}
	for _, t := range ev.stack[m:e] {
		ev.stack = append(ev.stack, Term{Key: t.Key, C: t.C * cl})
	}
	for _, ta := range ev.stack[s:m] {
		for _, tb := range ev.stack[m:e] {
			ev.stack = append(ev.stack, Term{Key: mergeFactors(ta.Key, tb.Key), C: ta.C * tb.C})
		}
	}
	prod := ev.stack[e:]
	slices.SortFunc(prod, func(a, b Term) int { return strings.Compare(a.Key, b.Key) })
	w := s
	for r := 0; r < len(prod); {
		t := prod[r]
		for r++; r < len(prod) && prod[r].Key == t.Key; r++ {
			t.C += prod[r].C
		}
		if t.C != 0 {
			ev.stack[w] = t
			w++
		}
	}
	ev.stack = ev.stack[:w]
}

// mergeFactors produces the canonical sorted factor-product key.
func mergeFactors(a, b string) string {
	fs := append(strings.Split(a, "*"), strings.Split(b, "*")...)
	slices.Sort(fs)
	return strings.Join(fs, "*")
}

func (a Affine) isConst() bool { return a.OK && len(a.Terms) == 0 }

// DependsOn reports whether any term contains variable v as a factor.
func (a Affine) DependsOn(v string) bool {
	if !a.OK {
		return false
	}
	for _, t := range a.Terms {
		if termHasVar(t.Key, v) {
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

// nextInPart skips the terms of ts outside the half of the decomposition
// samePart compares.
func nextInPart(ts []Term, v string, varPart bool) []Term {
	for len(ts) > 0 && termHasVar(ts[0].Key, v) != varPart {
		ts = ts[1:]
	}
	return ts
}

// samePart compares one half of the decomposition of two subscripts for
// the cross-iteration conflict test on the v loop, in place: with varPart
// the terms containing v, otherwise the v-invariant terms together with
// the constant (unless ignoreConst). Both halves are sorted, so it is one
// merge of the two term lists.
func samePart(a, b Affine, v string, varPart, ignoreConst bool) bool {
	ta, tb := a.Terms, b.Terms
	for {
		ta, tb = nextInPart(ta, v, varPart), nextInPart(tb, v, varPart)
		if len(ta) == 0 || len(tb) == 0 {
			if len(ta) != len(tb) {
				return false
			}
			return varPart || ignoreConst || a.Const == b.Const
		}
		if ta[0] != tb[0] {
			return false
		}
		ta, tb = ta[1:], tb[1:]
	}
}

// Equal reports whether two forms are identical.
func (a Affine) Equal(b Affine) bool {
	return a.OK && b.OK && a.Const == b.Const && slices.Equal(a.Terms, b.Terms)
}

// EqualModulo reports whether a and b agree on every term not containing v
// (used to compare subscripts across iterations of the v loop).
func (a Affine) EqualModulo(b Affine, v string) bool {
	if !a.OK || !b.OK {
		return false
	}
	return samePart(a, b, v, false, false)
}

// String renders the form for diagnostics: its terms in key order, then
// the constant when it is not zero or there are no terms.
func (a Affine) String() string {
	if !a.OK {
		return "<non-affine>"
	}
	var sb strings.Builder
	for i, t := range a.Terms {
		if i > 0 {
			sb.WriteString(" + ")
		}
		switch t.C {
		case 1:
		case -1:
			sb.WriteByte('-')
		default:
			sb.WriteString(strconv.FormatInt(t.C, 10))
			sb.WriteByte('*')
		}
		sb.WriteString(t.Key)
	}
	if a.Const != 0 || len(a.Terms) == 0 {
		if len(a.Terms) > 0 {
			sb.WriteString(" + ")
		}
		sb.WriteString(strconv.FormatInt(a.Const, 10))
	}
	return sb.String()
}
