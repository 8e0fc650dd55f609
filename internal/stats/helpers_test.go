package stats

// Min returns the smallest element of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty sample")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
