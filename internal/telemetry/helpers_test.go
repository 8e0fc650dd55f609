package telemetry

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the mean observed value (0 with no observations).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}
