package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// normFloat64 draws a standard normal sample from r with the polar
// Box-Muller transform.
func normFloat64(r *rng.Source) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !approx(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 7, 0}
	if Min(xs) != -2 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v, want -2/7", Min(xs), Max(xs))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // sorted: 1 2 3 4
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !approx(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile([]float64{9}, 0.5) != 9 {
		t.Error("Quantile of singleton")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fit.Slope, 2, 1e-12) || !approx(fit.Intercept, 3, 1e-12) || !approx(fit.R2, 1, 1e-12) {
		t.Errorf("fit = %+v, want slope 2 intercept 3 R2 1", fit)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point not rejected")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x not rejected")
	}
}

func TestFitLinearNoisy(t *testing.T) {
	r := rng.New(8)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 1.5*xs[i] + 10 + 0.1*normFloat64(r)
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fit.Slope, 1.5, 0.01) {
		t.Errorf("noisy slope = %v, want ~1.5", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %v, want near 1", fit.R2)
	}
}

func TestQuantilePropertyBounds(t *testing.T) {
	r := rng.New(4)
	check := func(seed uint32, n uint8) bool {
		if n == 0 {
			return true
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		q := Quantile(xs, 0.5)
		return q >= Min(xs) && q <= Max(xs)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanBetweenMinMaxProperty(t *testing.T) {
	r := rng.New(14)
	check := func(n uint8) bool {
		if n == 0 {
			return true
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = normFloat64(r)
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-12 && m <= Max(xs)+1e-12
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
