package fixtures

func near(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < eps
}

func intEq(a, b int) bool {
	return a == b
}

type tally struct {
	Mean int
}

// An int field is not a float, whatever another struct's float field is
// called.
func sameTally(a, b tally) bool {
	return a.Mean == b.Mean
}

// A comparable type parameter is no float.
func sameKey[T comparable](a, b T) bool {
	return a == b
}
