package paths

// CongestionsBothWays returns the per-path congestions computed by each of
// the two exact methods, whichever the collection would pick.
func CongestionsBothWays(c *Collection) (stamps, bitsets []int) {
	x := c.Index()
	return x.congestionsByStamps(), x.congestionsByBits()
}
