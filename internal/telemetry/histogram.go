package telemetry

// Histogram is a fixed-bucket histogram of non-negative integers, and
// its own serializable form. The bucket layout is chosen at construction
// and never changes, so Observe is a branch-light loop with no
// allocation; Prometheus-style cumulative buckets are materialized only
// at export time.
type Histogram struct {
	// Bounds are the inclusive upper bucket bounds, strictly increasing;
	// an implicit +Inf bucket follows the last bound.
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
		Bounds: append([]int(nil), bounds...),
		Counts: make([]uint64, len(bounds)+1),
		Min:    -1,
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
	for i < len(h.Bounds) && v > h.Bounds[i] {
		i++
	}
	h.Counts[i]++
	h.Count++
	h.Sum += uint64(v)
	if h.Min < 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
}

// fits reports whether o can be folded into h: o is empty (no bounds,
// counts or observations) or has h's bucket layout, and o agrees with
// itself — its counts sum to its Count, with no observations its Sum is
// 0, and with observations 0 <= Min <= Max, Min lies in the lowest
// occupied bucket and Max in the highest.
func (h *Histogram) fits(o *Histogram) bool {
	if o.Count == 0 && o.Sum != 0 {
		return false
	}
	if len(o.Bounds) == 0 && len(o.Counts) == 0 {
		return o.Count == 0
	}
	if len(o.Bounds) != len(h.Bounds) || len(o.Counts) != len(h.Counts) {
		return false
	}
	for i, b := range o.Bounds {
		if h.Bounds[i] != b {
			return false
		}
	}
	var n uint64
	lowest, highest := -1, -1
	for i, c := range o.Counts {
		if n+c < n {
			return false
		}
		n += c
		if c > 0 {
			if lowest < 0 {
				lowest = i
			}
			highest = i
		}
	}
	if n != o.Count {
		return false
	}
	return o.Count == 0 || (0 <= o.Min && o.Min <= o.Max &&
		o.inBucket(o.Min, lowest) && o.inBucket(o.Max, highest))
}

// inBucket reports whether v lies in bucket i: above the previous bound
// and at most bound i (the +Inf bucket has no upper bound).
func (h *Histogram) inBucket(v, i int) bool {
	return (i == 0 || v > h.Bounds[i-1]) && (i == len(h.Bounds) || v <= h.Bounds[i])
}

// add folds o's observations into h. It panics if o does not fit: a
// caller's bug, since AddSnapshot checks every histogram before folding.
func (h *Histogram) add(o *Histogram) {
	if !h.fits(o) {
		panic("telemetry: histogram does not fit")
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Count > 0 {
		if h.Min < 0 || (o.Min >= 0 && o.Min < h.Min) {
			h.Min = o.Min
		}
		if o.Max > h.Max {
			h.Max = o.Max
		}
	}
}

// Reset zeroes all observations, keeping the bucket layout.
func (h *Histogram) Reset() {
	clear(h.Counts)
	h.Count, h.Sum, h.Min, h.Max = 0, 0, -1, 0
}

// Snapshot returns a deep copy of h, safe to hold while h observes on.
func (h *Histogram) Snapshot() Histogram {
	s := *h
	s.Bounds = append([]int(nil), h.Bounds...)
	s.Counts = append([]uint64(nil), h.Counts...)
	return s
}

// Mean returns the mean observed value (0 with no observations).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation inside the bucket holding the target
// rank, the standard Prometheus-style estimator. The estimate is
// clamped to the exact observed [Min, Max] range, so Quantile(0) is Min,
// Quantile(1) is Max, and tail quantiles landing in the +Inf bucket
// degrade to Max instead of inventing mass beyond it. With no
// observations it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 || len(h.Counts) != len(h.Bounds)+1 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := 0.0
	for i, c := range h.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		// Bucket i holds the target rank. Interpolate between its bounds;
		// the first bucket starts at 0 and the +Inf bucket is clamped to
		// the observed Max below.
		lo, hi := 0.0, float64(h.Max)
		if i > 0 {
			lo = float64(h.Bounds[i-1])
		}
		if i < len(h.Bounds) {
			hi = float64(h.Bounds[i])
		}
		// Tighten the interpolation range to the observed extremes.
		if lo < float64(h.Min) {
			lo = float64(h.Min)
		}
		if hi > float64(h.Max) {
			hi = float64(h.Max)
		}
		v := lo
		if c > 0 && hi > lo {
			v = lo + (hi-lo)*(rank-prev)/float64(c)
		}
		if v < float64(h.Min) {
			v = float64(h.Min)
		}
		if v > float64(h.Max) {
			v = float64(h.Max)
		}
		return v
	}
	return float64(h.Max)
}
