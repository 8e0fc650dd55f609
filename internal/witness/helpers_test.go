package witness

// IsForest reports whether the blocking graph has no directed cycles at
// all (components of a functional graph without cycles are in-trees
// rooted at worms that did not fail).
func (g *RoundGraph) IsForest() bool { return len(g.Cycles()) == 0 }

// AllForests reports whether every round is free of any directed cycle,
// including simultaneous ties.
func (a *Analysis) AllForests() bool {
	for _, g := range a.Rounds {
		if !g.IsForest() {
			return false
		}
	}
	return true
}
