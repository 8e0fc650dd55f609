// Package fixtures exercises the floateq analyzer: exact ==/!= with a
// floating-point operand in stats/experiments code must be reported.
package fixtures

type summary struct {
	Mean float64
}

func degenerate(x float64, s summary) bool {
	if x == 0.5 {
		return true
	}
	return s.Mean != x
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

type ratio float64

func degenerateDerived(xs []float64, r ratio) bool {
	// Hit: the float comes back from a call.
	if meanOf(xs) == 0 {
		return true
	}
	// Hit: a named float type is a float all the same.
	return r != 1
}

func sameValue[F ~float32 | ~float64](a, b F) bool {
	// Hit: a type parameter whose constraint admits a float.
	return a == b
}
