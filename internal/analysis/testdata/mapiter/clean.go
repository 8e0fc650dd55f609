package fixtures

import "sort"

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sliceRange(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

type index struct {
	ids map[int]bool
}

type batch struct {
	ids []int
}

// A slice field is not a map, whatever another struct's map field is
// called.
func (b *batch) sum() int {
	n := 0
	for _, id := range b.ids {
		n += id
	}
	return n
}
