package expr

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstAndVar(t *testing.T) {
	c := Const(7)
	if !c.IsConst() || c.ConstPart() != 7 {
		t.Fatalf("Const(7) = %v", c)
	}
	v := Var("i")
	if v.IsConst() || v.Coef("i") != 1 || v.Coef("j") != 0 {
		t.Fatalf("Var(i) = %v", v)
	}
	if got := Scaled("i", 0); !got.IsZero() {
		t.Fatalf("Scaled(i,0) = %v, want 0", got)
	}
}

func TestNewCombinesDuplicates(t *testing.T) {
	a := New(3, Term{"i", 2}, Term{"i", -2}, Term{"j", 5})
	if a.Coef("i") != 0 {
		t.Errorf("duplicate i terms not combined: %v", a)
	}
	if a.Coef("j") != 5 || a.ConstPart() != 3 {
		t.Errorf("New = %v", a)
	}
	if got := len(a.Terms()); got != 1 {
		t.Errorf("zero-coef term retained: %v", a)
	}
}

func TestAddSub(t *testing.T) {
	a := New(1, Term{"i", 2}, Term{"j", 3})
	b := New(4, Term{"j", -3}, Term{"k", 1})
	s := a.Add(b)
	want := New(5, Term{"i", 2}, Term{"k", 1})
	if !s.Equal(want) {
		t.Errorf("Add = %v, want %v", s, want)
	}
	d := s.Sub(b)
	if !d.Equal(a) {
		t.Errorf("(a+b)-b = %v, want %v", d, a)
	}
}

func TestScaleAndNeg(t *testing.T) {
	a := New(2, Term{"i", 3})
	if got := a.Scale(0); !got.IsZero() {
		t.Errorf("Scale(0) = %v", got)
	}
	if got := a.Scale(-2); got.ConstPart() != -4 || got.Coef("i") != -6 {
		t.Errorf("Scale(-2) = %v", got)
	}
	if got := a.Neg().Add(a); !got.IsZero() {
		t.Errorf("a + (-a) = %v", got)
	}
}

func TestMul(t *testing.T) {
	a := New(2, Term{"i", 3})
	c := Const(5)
	if p, ok := a.Mul(c); !ok || p.Coef("i") != 15 || p.ConstPart() != 10 {
		t.Errorf("a*5 = %v ok=%v", p, ok)
	}
	if p, ok := c.Mul(a); !ok || !p.Equal(a.Scale(5)) {
		t.Errorf("5*a = %v ok=%v", p, ok)
	}
	if _, ok := a.Mul(Var("j")); ok {
		t.Error("nonlinear product reported ok")
	}
}

func TestEval(t *testing.T) {
	a := New(1, Term{"i", 2}, Term{"j", -1})
	env := map[string]int64{"i": 10, "j": 3}
	got, err := a.Eval(env)
	if err != nil || got != 1+20-3 {
		t.Errorf("Eval = %d, %v", got, err)
	}
	if _, err := a.Eval(map[string]int64{"i": 1}); err == nil {
		t.Error("Eval with missing binding did not error")
	}
}

func TestSubst(t *testing.T) {
	// a = 2i + j + 1 ; i := 3k - 1  =>  6k + j - 1
	a := New(1, Term{"i", 2}, Term{"j", 1})
	r := New(-1, Term{"k", 3})
	got := a.Subst("i", r)
	want := New(-1, Term{"j", 1}, Term{"k", 6})
	if !got.Equal(want) {
		t.Errorf("Subst = %v, want %v", got, want)
	}
	// substituting an absent variable is identity
	if got := a.Subst("zz", r); !got.Equal(a) {
		t.Errorf("Subst absent = %v", got)
	}
}

func TestDiffersOnlyInConst(t *testing.T) {
	a := New(0, Term{"i", 1}, Term{"j", 2})
	b := New(4, Term{"i", 1}, Term{"j", 2})
	if d, ok := a.DiffersOnlyInConst(b); !ok || d != -4 {
		t.Errorf("DiffersOnlyInConst = %d, %v", d, ok)
	}
	c := New(4, Term{"i", 1})
	if _, ok := a.DiffersOnlyInConst(c); ok {
		t.Error("expected not uniformly generated")
	}
}

func TestBounds(t *testing.T) {
	a := New(10, Term{"i", 2}, Term{"j", -3})
	lo := map[string]int64{"i": 0, "j": 1}
	hi := map[string]int64{"i": 4, "j": 5}
	min, max, ok := a.Bounds(lo, hi)
	if !ok {
		t.Fatal("Bounds not ok")
	}
	// min: 10 + 2*0 - 3*5 = -5 ; max: 10 + 2*4 - 3*1 = 15
	if min != -5 || max != 15 {
		t.Errorf("Bounds = [%d,%d], want [-5,15]", min, max)
	}
	if _, _, ok := a.Bounds(map[string]int64{"i": 0}, hi); ok {
		t.Error("Bounds with missing range reported ok")
	}
}

func TestBoundsEmptyRange(t *testing.T) {
	a := New(0, Term{"i", 1})
	min, max, ok := a.Bounds(map[string]int64{"i": 5}, map[string]int64{"i": 2})
	if !ok || min != 5 || max != 5 {
		t.Errorf("degenerate Bounds = [%d,%d] ok=%v", min, max, ok)
	}
}

func TestDependsOn(t *testing.T) {
	a := New(0, Term{"i", 1}, Term{"n", 4})
	if !a.DependsOn("i") || !a.DependsOn("x", "n") || a.DependsOn("j") {
		t.Errorf("DependsOn wrong for %v", a)
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		a    Affine
		want string
	}{
		{Const(0), "0"},
		{Const(-3), "-3"},
		{Var("i"), "i"},
		{Var("i").Neg(), "-i"},
		{New(-3, Term{"i", 2}, Term{"j", -1}), "2*i - j - 3"},
		{New(4, Term{"j", 1}), "j + 4"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.a, got, c.want)
		}
	}
}

func TestSum(t *testing.T) {
	got := Sum(Var("i"), Var("j"), Const(2), Var("i"))
	want := New(2, Term{"i", 2}, Term{"j", 1})
	if !got.Equal(want) {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

// randomAffine builds a bounded random affine expression for property tests.
func randomAffine(r *rand.Rand) Affine {
	vars := []string{"i", "j", "k", "n"}
	a := Const(r.Int63n(21) - 10)
	for _, v := range vars {
		if r.Intn(2) == 0 {
			a = a.Add(Scaled(v, r.Int63n(11)-5))
		}
	}
	return a
}

func randomEnv(r *rand.Rand) map[string]int64 {
	return map[string]int64{
		"i": r.Int63n(201) - 100,
		"j": r.Int63n(201) - 100,
		"k": r.Int63n(201) - 100,
		"n": r.Int63n(201) - 100,
	}
}

func TestPropAddHomomorphic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomAffine(r), randomAffine(r)
		env := randomEnv(r)
		av, _ := a.Eval(env)
		bv, _ := b.Eval(env)
		sv, _ := a.Add(b).Eval(env)
		dv, _ := a.Sub(b).Eval(env)
		return sv == av+bv && dv == av-bv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSubstConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAffine(r)
		repl := randomAffine(r).Subst("i", Const(0)) // avoid self-reference
		env := randomEnv(r)
		rv, _ := repl.Eval(env)
		env2 := map[string]int64{"i": rv, "j": env["j"], "k": env["k"], "n": env["n"]}
		want, _ := a.Eval(env2)
		got, _ := a.Subst("i", repl).Eval(env)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropBoundsSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAffine(r)
		lo := map[string]int64{}
		hi := map[string]int64{}
		for _, v := range []string{"i", "j", "k", "n"} {
			l := r.Int63n(21) - 10
			lo[v] = l
			hi[v] = l + r.Int63n(10)
		}
		min, max, ok := a.Bounds(lo, hi)
		if !ok {
			return false
		}
		// Sample points must fall inside the bounds.
		for s := 0; s < 20; s++ {
			env := map[string]int64{}
			for v := range lo {
				env[v] = lo[v] + r.Int63n(hi[v]-lo[v]+1)
			}
			got, _ := a.Eval(env)
			if got < min || got > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropScaleDistributes(t *testing.T) {
	f := func(seed int64, c int8) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomAffine(r), randomAffine(r)
		lhs := a.Add(b).Scale(int64(c))
		rhs := a.Scale(int64(c)).Add(b.Scale(int64(c)))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropEqualIsStructural(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAffine(r)
		b := a.Add(Var("i")).Sub(Var("i"))
		return a.Equal(b) && b.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTermWalkAndAddConstShareTerms pins the set-up paths that walk and
// shift affines without allocating: TermAt walks the terms in place, and
// AddConst shares its operand's terms, which stays safe because every
// operation that changes terms builds a fresh list.
func TestTermWalkAndAddConstShareTerms(t *testing.T) {
	a := New(3, Term{Var: "j", Coef: 2}, Term{Var: "i", Coef: -1})
	var vars []string
	for i := 0; i < a.NumTerms(); i++ {
		vars = append(vars, a.TermAt(i).Var)
	}
	if got := strings.Join(vars, ","); got != strings.Join(a.Vars(), ",") || got != "i,j" {
		t.Fatalf("TermAt walk = %q, Vars = %v", got, a.Vars())
	}
	var n int
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < a.NumTerms(); i++ {
			n += len(a.TermAt(i).Var)
		}
		b := a.AddConst(5)
		n += int(b.ConstPart())
	}); allocs != 0 {
		t.Errorf("term walk and AddConst: %v allocs, want 0", allocs)
	}
	b := a.AddConst(5)
	_ = b.Add(Var("i")).Scale(3).Subst("j", Var("k"))
	if want := New(8, Term{Var: "j", Coef: 2}, Term{Var: "i", Coef: -1}); !b.Equal(want) {
		t.Fatalf("AddConst(5) = %s, want %s", b, want)
	}
	if !a.Equal(New(3, Term{Var: "j", Coef: 2}, Term{Var: "i", Coef: -1})) {
		t.Fatalf("a changed to %s", a)
	}
}
