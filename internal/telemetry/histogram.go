package telemetry

// Histogram is a fixed-bucket histogram of non-negative integers. The
// bucket layout is chosen at construction and never changes, so Observe
// is a branch-light loop with no allocation; Prometheus-style cumulative
// buckets are materialized only at snapshot time.
type Histogram struct {
	bounds []int    // inclusive upper bounds, strictly increasing
	counts []uint64 // len(bounds)+1; the last bucket is +Inf
	count  uint64
	sum    uint64
	min    int
	max    int
}

// NewHistogram returns a histogram with the given inclusive upper bucket
// bounds (strictly increasing); an implicit +Inf bucket is appended. It
// panics on an empty or non-increasing bounds slice.
func NewHistogram(bounds []int) Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	return Histogram{
		bounds: append([]int(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
		min:    -1,
	}
}

// ExpBuckets returns n strictly increasing bounds start, start*factor,
// start*factor^2, ... (rounded up to stay strictly increasing). It
// panics on start < 1, factor < 2 or n < 1.
func ExpBuckets(start, factor, n int) []int {
	if start < 1 || factor < 2 || n < 1 {
		panic("telemetry: ExpBuckets needs start >= 1, factor >= 2, n >= 1")
	}
	bounds := make([]int, n)
	v := start
	for i := 0; i < n; i++ {
		bounds[i] = v
		v *= factor
	}
	return bounds
}

// LinearBuckets returns n bounds start, start+width, start+2*width, ...
// It panics on width < 1 or n < 1.
func LinearBuckets(start, width, n int) []int {
	if width < 1 || n < 1 {
		panic("telemetry: LinearBuckets needs width >= 1, n >= 1")
	}
	bounds := make([]int, n)
	for i := 0; i < n; i++ {
		bounds[i] = start + i*width
	}
	return bounds
}

// Observe records value v (negative values clamp to 0).
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += uint64(v)
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// fits reports whether o can be folded into h: it is empty (no bounds,
// counts or observations), or its bucket layout is h's.
func (h *Histogram) fits(o *HistogramSnapshot) bool {
	if len(o.Bounds) == 0 && len(o.Counts) == 0 && o.Count == 0 {
		return true
	}
	if len(o.Bounds) != len(h.bounds) || len(o.Counts) != len(h.counts) {
		return false
	}
	for i, b := range o.Bounds {
		if h.bounds[i] != b {
			return false
		}
	}
	return true
}

// add folds o's observations into h. It panics if o does not fit: a
// caller's bug, since AddSnapshot checks every layout before folding.
func (h *Histogram) add(o *HistogramSnapshot) {
	if !h.fits(o) {
		panic("telemetry: histogram bucket layouts differ")
	}
	for i, c := range o.Counts {
		h.counts[i] += c
	}
	h.count += o.Count
	h.sum += o.Sum
	if o.Count > 0 {
		if h.min < 0 || (o.Min >= 0 && o.Min < h.min) {
			h.min = o.Min
		}
		if o.Max > h.max {
			h.max = o.Max
		}
	}
}

// Reset zeroes all observations, keeping the bucket layout.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.count, h.sum, h.min, h.max = 0, 0, -1, 0
}

// Snapshot returns a copy of the histogram's state for serialization.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: append([]int(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
}

// HistogramSnapshot is a serializable copy of a Histogram.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bucket bounds; an implicit +Inf
	// bucket follows the last bound.
	Bounds []int `json:"bounds"`
	// Counts[i] counts observations in bucket i (len(Bounds)+1 buckets).
	Counts []uint64 `json:"counts"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum uint64 `json:"sum"`
	// Min is the smallest observed value (-1 with no observations).
	Min int `json:"min"`
	// Max is the largest observed value.
	Max int `json:"max"`
}

// Mean returns the snapshot's mean observed value (0 with no
// observations).
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation inside the bucket holding the target
// rank, the standard Prometheus-style estimator. The estimate is
// clamped to the exact observed [Min, Max] range, so Quantile(0) is Min,
// Quantile(1) is Max, and tail quantiles landing in the +Inf bucket
// degrade to Max instead of inventing mass beyond it. With no
// observations it returns 0.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 || len(s.Counts) != len(s.Bounds)+1 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		// Bucket i holds the target rank. Interpolate between its bounds;
		// the first bucket starts at 0 and the +Inf bucket is clamped to
		// the observed Max below.
		lo, hi := 0.0, float64(s.Max)
		if i > 0 {
			lo = float64(s.Bounds[i-1])
		}
		if i < len(s.Bounds) {
			hi = float64(s.Bounds[i])
		}
		// Tighten the interpolation range to the observed extremes.
		if lo < float64(s.Min) {
			lo = float64(s.Min)
		}
		if hi > float64(s.Max) {
			hi = float64(s.Max)
		}
		v := lo
		if c > 0 && hi > lo {
			v = lo + (hi-lo)*(rank-prev)/float64(c)
		}
		if v < float64(s.Min) {
			v = float64(s.Min)
		}
		if v > float64(s.Max) {
			v = float64(s.Max)
		}
		return v
	}
	return float64(s.Max)
}
