// Package fixtures exercises the mapiter analyzer: ranging over a map in
// a deterministic package without sorting the keys first must be reported.
package fixtures

type registry struct {
	weights map[string]int
}

func (r *registry) total() int {
	sum := 0
	// Hit: iteration over a map-typed struct field, order-dependent or not.
	for _, w := range r.weights {
		sum += w
	}
	return sum
}

func collectedButNeverSorted() []string {
	m := make(map[string]bool)
	var out []string
	// Hit: keys are collected but no sort call follows in this block.
	for k := range m {
		out = append(out, k)
	}
	return out
}

type set map[string]bool

type catalog struct {
	members set
}

func (c *catalog) size() int {
	n := 0
	// Hit: a field of a named map type is a map all the same.
	for range c.members {
		n++
	}
	return n
}

func lookup() map[int]string {
	return map[int]string{1: "a"}
}

func anyName() string {
	// Hit: the map comes back from a call.
	for _, name := range lookup() {
		return name
	}
	return ""
}

func sumValues[M ~map[string]int](m M) int {
	n := 0
	// Hit: a type parameter whose constraint admits only maps.
	for _, v := range m {
		n += v
	}
	return n
}
