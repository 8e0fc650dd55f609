// Package stats provides the statistical helpers used by the experiment
// harness: means, maxima and quantiles, and linear regression for
// growth-rate fits.
//
// Everything operates on plain float64 slices and is deterministic, so the
// experiment tables in EXPERIMENTS.md are exactly reproducible.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the largest element of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty sample")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice or a
// q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinearFit holds the result of an ordinary-least-squares line fit
// y = Slope*x + Intercept.
type LinearFit struct {
	Slope, Intercept float64
	R2               float64 // coefficient of determination
}

// FitLinear computes an OLS fit of ys against xs. The slices must have the
// same length of at least two; otherwise an error is returned. A degenerate
// x-sample (all equal) yields an error as well.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: FitLinear length mismatch %d != %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return LinearFit{}, errors.New("stats: FitLinear needs at least 2 points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	//optlint:allow floateq exact-zero degeneracy guard: sum of squares is 0 iff every dx is 0
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: FitLinear degenerate x sample")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	//optlint:allow floateq exact-zero degeneracy guard: sum of squares is 0 iff every dy is 0
	if syy == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = sxy * sxy / (sxx * syy)
	}
	return fit, nil
}
