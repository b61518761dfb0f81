// Package expr implements the affine (linear) integer expression algebra the
// CCDP compiler phases are built on.
//
// An Affine value represents
//
//	c0 + c1*v1 + c2*v2 + ... + cn*vn
//
// with int64 coefficients over named integer variables (loop induction
// variables and symbolic program parameters). Array subscripts, loop bounds
// and address expressions are all Affine values; the stale-reference,
// locality and scheduling analyses manipulate them symbolically and the
// execution engine evaluates them against concrete environments.
package expr

import (
	"fmt"
	"strings"
)

// Term is one coefficient*variable product of an affine expression.
type Term struct {
	Var  string
	Coef int64
}

// Affine is an immutable affine expression: a constant plus a sum of terms.
// The zero value is the constant 0. Terms are kept sorted by variable name
// with no zero coefficients, so structural equality is semantic equality.
type Affine struct {
	terms []Term
	k     int64
}

// Const returns the constant affine expression k.
func Const(k int64) Affine { return Affine{k: k} }

// Var returns the affine expression 1*name.
func Var(name string) Affine {
	return Affine{terms: []Term{{Var: name, Coef: 1}}}
}

// Scaled returns the affine expression coef*name.
func Scaled(name string, coef int64) Affine {
	if coef == 0 {
		return Affine{}
	}
	return Affine{terms: []Term{{Var: name, Coef: coef}}}
}

// New builds an affine expression from a constant and a set of terms.
// Duplicate variables are combined; zero coefficients are dropped.
func New(k int64, terms ...Term) Affine {
	a := Const(k)
	for _, t := range terms {
		a = a.Add(Scaled(t.Var, t.Coef))
	}
	return a
}

// ConstPart returns the constant term c0.
func (a Affine) ConstPart() int64 { return a.k }

// Coef returns the coefficient of variable v (0 if absent).
func (a Affine) Coef(v string) int64 {
	for _, t := range a.terms {
		if t.Var == v {
			return t.Coef
		}
	}
	return 0
}

// Terms returns a copy of the non-constant terms, sorted by variable name.
func (a Affine) Terms() []Term {
	out := make([]Term, len(a.terms))
	copy(out, a.terms)
	return out
}

// NumTerms returns the number of variable terms.
func (a Affine) NumTerms() int { return len(a.terms) }

// TermAt returns the i-th variable term in variable-name order. With
// NumTerms it walks the terms in place: Terms and Vars copy them.
func (a Affine) TermAt(i int) Term { return a.terms[i] }

// Vars returns the variables with non-zero coefficients, sorted.
func (a Affine) Vars() []string {
	out := make([]string, len(a.terms))
	for i, t := range a.terms {
		out[i] = t.Var
	}
	return out
}

// IsConst reports whether a has no variable terms.
func (a Affine) IsConst() bool { return len(a.terms) == 0 }

// IsZero reports whether a is the constant 0.
func (a Affine) IsZero() bool { return len(a.terms) == 0 && a.k == 0 }

// Add returns a+b.
func (a Affine) Add(b Affine) Affine {
	out := Affine{k: a.k + b.k}
	out.terms = mergeTerms(a.terms, b.terms, 1)
	return out
}

// Sub returns a-b.
func (a Affine) Sub(b Affine) Affine {
	out := Affine{k: a.k - b.k}
	out.terms = mergeTerms(a.terms, b.terms, -1)
	return out
}

// Neg returns -a.
func (a Affine) Neg() Affine { return Const(0).Sub(a) }

// Scale returns c*a.
func (a Affine) Scale(c int64) Affine {
	if c == 0 {
		return Affine{}
	}
	out := Affine{k: a.k * c, terms: make([]Term, len(a.terms))}
	for i, t := range a.terms {
		out.terms[i] = Term{Var: t.Var, Coef: t.Coef * c}
	}
	return out
}

// AddConst returns a+k. The result shares a's terms: no operation
// mutates a term list in place (Add, Sub, Scale and Subst build fresh
// ones).
func (a Affine) AddConst(k int64) Affine {
	a.k += k
	return a
}

// Mul returns a*b when at least one operand is constant; ok is false when
// both have variable terms (the product would not be affine).
func (a Affine) Mul(b Affine) (Affine, bool) {
	switch {
	case a.IsConst():
		return b.Scale(a.k), true
	case b.IsConst():
		return a.Scale(b.k), true
	default:
		return Affine{}, false
	}
}

// Equal reports whether a and b denote the same affine function.
func (a Affine) Equal(b Affine) bool {
	if a.k != b.k || len(a.terms) != len(b.terms) {
		return false
	}
	for i := range a.terms {
		if a.terms[i] != b.terms[i] {
			return false
		}
	}
	return true
}

// DiffersOnlyInConst reports whether a and b have identical variable terms,
// i.e. a-b is a constant, and returns that constant. This is the
// "uniformly generated" test of the prefetch target analysis (paper §4.2).
func (a Affine) DiffersOnlyInConst(b Affine) (int64, bool) {
	d := a.Sub(b)
	if !d.IsConst() {
		return 0, false
	}
	return d.k, true
}

// Eval evaluates a under env. It returns an error naming the first variable
// missing from env.
func (a Affine) Eval(env map[string]int64) (int64, error) {
	v := a.k
	for _, t := range a.terms {
		x, ok := env[t.Var]
		if !ok {
			return 0, fmt.Errorf("expr: unbound variable %q", t.Var)
		}
		v += t.Coef * x
	}
	return v, nil
}

// MustEval is Eval that panics on unbound variables; for use by the
// execution engine where the environment is constructed to be complete.
func (a Affine) MustEval(env map[string]int64) int64 {
	v, err := a.Eval(env)
	if err != nil {
		panic(err)
	}
	return v
}

// Subst returns a with variable v replaced by expression r.
func (a Affine) Subst(v string, r Affine) Affine {
	c := a.Coef(v)
	if c == 0 {
		return a
	}
	out := Affine{k: a.k}
	for _, t := range a.terms {
		if t.Var != v {
			out.terms = append(out.terms, t)
		}
	}
	return out.Add(r.Scale(c))
}

// DependsOn reports whether a has a non-zero coefficient on any of vars.
func (a Affine) DependsOn(vars ...string) bool {
	for _, v := range vars {
		if a.Coef(v) != 0 {
			return true
		}
	}
	return false
}

// Bounds returns the min and max value of a when each variable v ranges
// over the interval lo[v]..hi[v] (inclusive). Variables absent from the
// ranges make ok false. This is the Banerjee-style extreme-value bound used
// by the dependence tests and section builders.
func (a Affine) Bounds(lo, hi map[string]int64) (min, max int64, ok bool) {
	min, max = a.k, a.k
	for _, t := range a.terms {
		l, okL := lo[t.Var]
		h, okH := hi[t.Var]
		if !okL || !okH {
			return 0, 0, false
		}
		if l > h {
			// Empty range: the enclosing loop executes zero iterations;
			// callers treat the reference as absent. Report the degenerate
			// bound at the lower end.
			h = l
		}
		if t.Coef >= 0 {
			min += t.Coef * l
			max += t.Coef * h
		} else {
			min += t.Coef * h
			max += t.Coef * l
		}
	}
	return min, max, true
}

// String renders a in a canonical human-readable form such as
// "2*i + j - 3" or "0".
func (a Affine) String() string {
	if len(a.terms) == 0 {
		return fmt.Sprintf("%d", a.k)
	}
	var b strings.Builder
	for i, t := range a.terms {
		switch {
		case i == 0 && t.Coef == 1:
			b.WriteString(t.Var)
		case i == 0 && t.Coef == -1:
			b.WriteString("-" + t.Var)
		case i == 0:
			fmt.Fprintf(&b, "%d*%s", t.Coef, t.Var)
		case t.Coef == 1:
			b.WriteString(" + " + t.Var)
		case t.Coef == -1:
			b.WriteString(" - " + t.Var)
		case t.Coef > 0:
			fmt.Fprintf(&b, " + %d*%s", t.Coef, t.Var)
		default:
			fmt.Fprintf(&b, " - %d*%s", -t.Coef, t.Var)
		}
	}
	switch {
	case a.k > 0:
		fmt.Fprintf(&b, " + %d", a.k)
	case a.k < 0:
		fmt.Fprintf(&b, " - %d", -a.k)
	}
	return b.String()
}

// mergeTerms merges two sorted term slices computing a + sign*b, dropping
// zero coefficients and keeping the result sorted.
func mergeTerms(a, b []Term, sign int64) []Term {
	out := make([]Term, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Var < b[j].Var:
			out = append(out, a[i])
			i++
		case a[i].Var > b[j].Var:
			out = append(out, Term{Var: b[j].Var, Coef: sign * b[j].Coef})
			j++
		default:
			c := a[i].Coef + sign*b[j].Coef
			if c != 0 {
				out = append(out, Term{Var: a[i].Var, Coef: c})
			}
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	for ; j < len(b); j++ {
		out = append(out, Term{Var: b[j].Var, Coef: sign * b[j].Coef})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Sum adds a list of affine expressions.
func Sum(xs ...Affine) Affine {
	var acc Affine
	for _, x := range xs {
		acc = acc.Add(x)
	}
	return acc
}
