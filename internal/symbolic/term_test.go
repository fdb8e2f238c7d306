package symbolic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"symplfied/internal/isa"
)

func TestTermArithmetic(t *testing.T) {
	x := FreshTerm(0)

	y, ok := x.AddConst(5)
	if !ok || y.Coeff != 1 || y.Off != 5 {
		t.Fatalf("AddConst: %+v, %v", y, ok)
	}
	z, isZero, ok := y.MulConst(3)
	if !ok || isZero || z.Coeff != 3 || z.Off != 15 {
		t.Fatalf("MulConst: %+v", z)
	}
	if _, isZero, _ := y.MulConst(0); !isZero {
		t.Fatal("MulConst(0) not zero")
	}
	n, ok := z.Neg()
	if !ok || n.Coeff != -3 || n.Off != -15 {
		t.Fatalf("Neg: %+v", n)
	}

	// Same-root addition and cancellation.
	sum, _, isConst, ok := z.AddTerm(n)
	if !ok || !isConst {
		t.Fatalf("AddTerm cancellation: %+v isConst=%v ok=%v", sum, isConst, ok)
	}
	diff, c, isConst, ok := y.SubTerm(y)
	if !ok || !isConst || c != 0 {
		t.Fatalf("SubTerm self: %+v c=%d", diff, c)
	}

	// Different roots cannot combine.
	other := FreshTerm(1)
	if _, _, _, ok := x.AddTerm(other); ok {
		t.Fatal("cross-root AddTerm succeeded")
	}
}

func TestTermOverflowDegrades(t *testing.T) {
	big := Term{Root: 0, Coeff: maxInt64, Off: 0}
	if _, _, ok := big.MulConst(2); ok {
		t.Error("coefficient overflow not detected")
	}
	bigOff := Term{Root: 0, Coeff: 1, Off: maxInt64}
	if _, ok := bigOff.AddConst(1); ok {
		t.Error("offset overflow not detected")
	}
	if _, ok := (Term{Root: 0, Coeff: minInt64}).Neg(); ok {
		t.Error("negation overflow not detected")
	}
}

func TestInvertCmpExactness(t *testing.T) {
	// Exhaustive small-space check: for every coeff, off, rhs and x in a
	// window, "coeff*x + off cmp rhs" must hold iff the translated root
	// atom holds for x. This is the solver's integer-exactness contract.
	cmps := []isa.Cmp{isa.CmpEq, isa.CmpNe, isa.CmpGt, isa.CmpLt, isa.CmpGe, isa.CmpLe}
	for coeff := int64(-4); coeff <= 4; coeff++ {
		for off := int64(-3); off <= 3; off++ {
			tm := Term{Root: 0, Coeff: coeff, Off: off}
			for rhs := int64(-6); rhs <= 6; rhs++ {
				for _, cmp := range cmps {
					rootCmp, rootVal, taut, ok := tm.InvertCmp(cmp, rhs)
					for x := int64(-10); x <= 10; x++ {
						direct := isa.EvalCmp(cmp, coeff*x+off, rhs)
						var translated bool
						switch {
						case !ok:
							translated = false
						case taut:
							translated = true
						default:
							translated = isa.EvalCmp(rootCmp, x, rootVal)
						}
						if direct != translated {
							t.Fatalf("InvertCmp(%d*x%+d %s %d): x=%d direct=%v translated=%v (atom x %s %d, taut=%v ok=%v)",
								coeff, off, cmp, rhs, x, direct, translated, rootCmp, rootVal, taut, ok)
						}
					}
				}
			}
		}
	}
}

func TestInvertCmpRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	cmps := []isa.Cmp{isa.CmpEq, isa.CmpNe, isa.CmpGt, isa.CmpLt, isa.CmpGe, isa.CmpLe}
	for iter := 0; iter < 5000; iter++ {
		coeff := int64(r.Intn(2001) - 1000)
		off := int64(r.Intn(2001) - 1000)
		rhs := int64(r.Intn(20001) - 10000)
		cmp := cmps[r.Intn(len(cmps))]
		tm := Term{Root: 0, Coeff: coeff, Off: off}
		rootCmp, rootVal, taut, ok := tm.InvertCmp(cmp, rhs)
		for probe := 0; probe < 8; probe++ {
			x := int64(r.Intn(4001) - 2000)
			direct := isa.EvalCmp(cmp, coeff*x+off, rhs)
			var translated bool
			switch {
			case !ok:
				translated = false
			case taut:
				translated = true
			default:
				translated = isa.EvalCmp(rootCmp, x, rootVal)
			}
			if direct != translated {
				t.Fatalf("iter %d: %d*x%+d %s %d at x=%d: direct=%v translated=%v",
					iter, coeff, off, cmp, rhs, x, direct, translated)
			}
		}
	}
}

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct {
		a, b, floor, ceil int64
	}{
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{6, 3, 2, 2},
		{-6, 3, -2, -2},
		{0, 5, 0, 0},
		{1, 5, 0, 1},
		{-1, 5, -1, 0},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.floor {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.floor)
		}
		if got := ceilDiv(c.a, c.b); got != c.ceil {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ceil)
		}
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		tm   Term
		want string
	}{
		{FreshTerm(0), "e#0"},
		{Term{Root: 1, Coeff: 5}, "5*e#1"},
		{Term{Root: 2, Coeff: 1, Off: -3}, "e#2-3"},
		{Term{Root: 3, Coeff: -2, Off: 7}, "-2*e#3+7"},
		{Term{Root: 4, Coeff: 1, Off: 9}, "e#4+9"},
		{Term{Root: 1 << 30, Coeff: math.MinInt64, Off: math.MaxInt64}, "-9223372036854775808*e#1073741824+9223372036854775807"},
	}
	for _, c := range cases {
		if got := c.tm.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// evalTerm interprets a term at a concrete root value, ignoring overflow.
func evalTerm(tm Term, x int64) int64 { return tm.Coeff*x + tm.Off }

// Property (testing/quick): AddConst composes additively under evaluation.
func TestTermAddConstProperty(t *testing.T) {
	f := func(x int8, a, b int16) bool {
		tm := FreshTerm(0)
		t1, ok1 := tm.AddConst(int64(a))
		if !ok1 {
			return true
		}
		t2, ok2 := t1.AddConst(int64(b))
		if !ok2 {
			return true
		}
		return evalTerm(t2, int64(x)) == int64(x)+int64(a)+int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): MulConst commutes with evaluation.
func TestTermMulConstProperty(t *testing.T) {
	f := func(x int8, a int16, c int16) bool {
		tm := Term{Root: 0, Coeff: 1, Off: int64(a)}
		out, isZero, ok := tm.MulConst(int64(c))
		if !ok {
			return true
		}
		want := evalTerm(tm, int64(x)) * int64(c)
		if isZero {
			return want == 0 || c == 0
		}
		return evalTerm(out, int64(x)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): same-root AddTerm/SubTerm agree with evaluation.
func TestTermAddSubProperty(t *testing.T) {
	f := func(x int8, c1, c2, o1, o2 int8) bool {
		t1 := Term{Root: 0, Coeff: int64(c1), Off: int64(o1)}
		t2 := Term{Root: 0, Coeff: int64(c2), Off: int64(o2)}
		xa := int64(x)

		if sum, cv, isConst, ok := t1.AddTerm(t2); ok {
			want := evalTerm(t1, xa) + evalTerm(t2, xa)
			got := cv
			if !isConst {
				got = evalTerm(sum, xa)
			}
			if got != want {
				return false
			}
		}
		if diff, cv, isConst, ok := t1.SubTerm(t2); ok {
			want := evalTerm(t1, xa) - evalTerm(t2, xa)
			got := cv
			if !isConst {
				got = evalTerm(diff, xa)
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
