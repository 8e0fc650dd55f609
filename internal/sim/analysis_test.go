package sim

// Analysis-validation tests: Monte-Carlo checks of the probability
// statements the paper's proofs rest on, run against the real simulator.

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/stats"
)

// TestPairwiseCollisionProbabilityBound validates the inequality at the
// heart of Lemma 2.4: for two worms sharing an edge, with delays drawn
// from [Delta] and wavelengths from [B],
//
//	Pr[w1 is discarded by w2] <= 2L / (B*Delta).
func TestPairwiseCollisionProbabilityBound(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	const (
		L      = 4
		B      = 2
		Delta  = 24
		trials = 30000
	)
	src := rng.New(515)
	losses := 0
	for i := 0; i < trials; i++ {
		worms := []Worm{
			{ID: 0, Path: graph.Path{0, 2, 3, 4}, Length: L,
				Delay: src.Intn(Delta), Wavelength: src.Intn(B)},
			{ID: 1, Path: graph.Path{1, 2, 3}, Length: L,
				Delay: src.Intn(Delta), Wavelength: src.Intn(B)},
		}
		res, err := NewEngine().Run(g, worms, Config{Bandwidth: B, Rule: optical.ServeFirst})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Outcomes[0].Delivered {
			losses++
		}
	}
	p := float64(losses) / trials
	bound := 2.0 * L / (B * Delta)
	// Allow 5 standard errors of slack on top of the bound.
	slack := 5 * math.Sqrt(bound*(1-bound)/trials)
	if p > bound+slack {
		t.Errorf("Pr[w1 discarded] = %.4f exceeds bound 2L/(B*Delta) = %.4f", p, bound)
	}
	if losses == 0 {
		t.Error("no collisions at all: the experiment is vacuous")
	}
}

// TestLemma28ChainProbability validates Lemma 2.8's lower bound for the
// staggered structure: with the worms on the first i+1 paths active, the
// probability that the first i worms are all discarded is at least
// ((L-1)/(2*B*Delta))^i.
func TestLemma28ChainProbability(t *testing.T) {
	// Build one staggered structure inline (see lowerbound.Staggered; we
	// avoid the import cycle by constructing the three-path instance by
	// hand): d = floor((L-1)/2)+1, path i starts at level i*d and shares
	// one edge with path i+1 at its offset d.
	const (
		L      = 4 // d = 2
		B      = 1
		Delta  = 8
		D      = 8
		trials = 20000
	)
	d := (L-1)/2 + 1
	// Nodes: path 0: a0..a8; path 1 shares a[d]..a[d+1] region via
	// dedicated shared nodes. Simplest: chain of 3 overlapping paths on a
	// long line won't reproduce the stagger; build explicitly:
	// shared edge 1 between p0 (offset d) and p1 (offset 0);
	// shared edge 2 between p1 (offset d) and p2 (offset 0).
	nodes := 0
	node := func() int { nodes++; return nodes - 1 }
	sh1a, sh1z := node(), node()
	sh2a, sh2z := node(), node()
	build := func(pre []int, first2 [2]int, midGap int, second2 [2]int, rest int) graph.Path {
		p := graph.Path{}
		for _, u := range pre {
			p = append(p, u)
		}
		p = append(p, first2[0], first2[1])
		for i := 0; i < midGap; i++ {
			p = append(p, node())
		}
		p = append(p, second2[0], second2[1])
		for i := 0; i < rest; i++ {
			p = append(p, node())
		}
		return p
	}
	// p0: [priv x d-1 ... ] sh1 at offset d: nodes before sh1a: d nodes.
	p0 := graph.Path{}
	for i := 0; i < d; i++ {
		p0 = append(p0, node())
	}
	p0 = append(p0, sh1a, sh1z)
	for len(p0) < D+1 {
		p0 = append(p0, node())
	}
	// p1: starts at sh1a; sh2 at offset d.
	p1 := build(nil, [2]int{sh1a, sh1z}, d-2, [2]int{sh2a, sh2z}, D+1-2-(d-2)-2)
	// p2: starts at sh2a.
	p2 := build(nil, [2]int{sh2a, sh2z}, 0, [2]int{node(), node()}, D+1-4)
	g := graph.New(nodes)
	for _, p := range []graph.Path{p0, p1, p2} {
		for i := 0; i+1 < len(p); i++ {
			g.AddEdge(p[i], p[i+1])
		}
	}
	for i, p := range []graph.Path{p0, p1, p2} {
		if err := p.Validate(g); err != nil {
			t.Fatalf("path %d invalid: %v", i, err)
		}
	}

	src := rng.New(616)
	blockedBoth := 0
	for i := 0; i < trials; i++ {
		worms := []Worm{
			{ID: 0, Path: p0, Length: L, Delay: src.Intn(Delta), Wavelength: 0},
			{ID: 1, Path: p1, Length: L, Delay: src.Intn(Delta), Wavelength: 0},
			{ID: 2, Path: p2, Length: L, Delay: src.Intn(Delta), Wavelength: 0},
		}
		res, err := NewEngine().Run(g, worms, Config{Bandwidth: B, Rule: optical.ServeFirst})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Outcomes[0].Delivered && !res.Outcomes[1].Delivered {
			blockedBoth++
		}
	}
	p := float64(blockedBoth) / trials
	// Lemma 2.8 with i = 2: probability at least ((L-1)/(2*B*Delta))^2.
	lower := math.Pow(float64(L-1)/(2*B*Delta), 2)
	slack := 5 * math.Sqrt(p*(1-p)/trials)
	if p+slack < lower {
		t.Errorf("chain blocking probability %.5f below Lemma 2.8 bound %.5f", p, lower)
	}
}

// TestCongestionHalvingStatistics validates Lemma 2.4 end to end: with
// Delta >= 8e*L*C/B, the surviving congestion after one round on C
// identical paths is below C/2 in the overwhelming majority of trials.
func TestCongestionHalvingStatistics(t *testing.T) {
	const (
		C      = 64
		L      = 4
		B      = 1
		D      = 6
		trials = 200
	)
	g := graph.New(D + 1)
	p := make(graph.Path, D+1)
	for i := range p {
		p[i] = i
		if i > 0 {
			g.AddEdge(i-1, i)
		}
	}
	delta := int(math.Ceil(8 * math.E * float64(L*C/B))) // Lemma 2.4 round-1 requirement
	src := rng.New(717)
	var survivors []float64
	for tr := 0; tr < trials; tr++ {
		worms := make([]Worm, C)
		for i := range worms {
			worms[i] = Worm{ID: i, Path: p, Length: L,
				Delay: src.Intn(delta), Wavelength: src.Intn(B)}
		}
		res, err := NewEngine().Run(g, worms, Config{Bandwidth: B, Rule: optical.ServeFirst})
		if err != nil {
			t.Fatal(err)
		}
		survivors = append(survivors, float64(C-res.DeliveredCount))
	}
	over := 0
	for _, s := range survivors {
		if s > C/2 {
			over++
		}
	}
	if frac := float64(over) / trials; frac > 0.05 {
		t.Errorf("congestion exceeded C/2 after one round in %.0f%% of trials", 100*frac)
	}
	mean := stats.Mean(survivors)
	// Expectation is at most C/(4e) by the lemma's calculation.
	if bound := float64(C) / (4 * math.E); mean > bound*1.25 {
		t.Errorf("mean survivors %.2f well above the C/(4e) = %.2f expectation bound", mean, bound)
	}
}

// TestWavelengthUniformityMatters: with B wavelengths, two conflicting
// worms survive together with probability ~ (B-1)/B when their intervals
// overlap; spot-check the simulator reproduces the 1/B collision factor.
func TestWavelengthUniformityMatters(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	const trials = 20000
	for _, B := range []int{2, 4} {
		src := rng.New(uint64(818 + B))
		collided := 0
		for i := 0; i < trials; i++ {
			// Same delay: guaranteed temporal overlap on link 2->3.
			worms := []Worm{
				{ID: 0, Path: graph.Path{0, 2, 3}, Length: 2, Delay: 0, Wavelength: src.Intn(B)},
				{ID: 1, Path: graph.Path{1, 2, 3}, Length: 2, Delay: 0, Wavelength: src.Intn(B)},
			}
			res, err := NewEngine().Run(g, worms, Config{Bandwidth: B, Rule: optical.ServeFirst})
			if err != nil {
				t.Fatal(err)
			}
			if res.DeliveredCount < 2 {
				collided++
			}
		}
		p := float64(collided) / trials
		want := 1.0 / float64(B)
		if math.Abs(p-want) > 0.02 {
			t.Errorf("B=%d: collision rate %.3f, want ~%.3f", B, p, want)
		}
	}
}

// TestLemma29NumericMaximum validates the paper's Lemma 2.9 numerically:
// for x_1..x_n >= 0 with sum y and alpha in [0, y], the product
// prod_i (x_i + alpha)^i is maximized at x_i + alpha =
// i*(y + n*alpha) / C(n+1, 2). We compare the claimed optimum against
// many random feasible points (in log space to avoid overflow).
func TestLemma29NumericMaximum(t *testing.T) {
	src := rng.New(929)
	logProduct := func(xs []float64, alpha float64) float64 {
		s := 0.0
		for i, x := range xs {
			s += float64(i+1) * math.Log(x+alpha)
		}
		return s
	}
	for trial := 0; trial < 200; trial++ {
		n := 2 + src.Intn(5)
		y := 1 + 10*src.Float64()
		choose2 := float64(n*(n+1)) / 2
		// Keep alpha small enough that the claimed optimum is feasible
		// (all x_i >= 0): alpha < y / (C(n+1,2) - n).
		maxAlpha := y / (choose2 - float64(n)) * 0.9
		alpha := src.Float64() * maxAlpha
		opt := make([]float64, n)
		sum := 0.0
		for i := range opt {
			opt[i] = float64(i+1)*(y+float64(n)*alpha)/choose2 - alpha
			if opt[i] < 0 {
				t.Fatalf("trial %d: claimed optimum infeasible: %v", trial, opt)
			}
			sum += opt[i]
		}
		if math.Abs(sum-y) > 1e-9 {
			t.Fatalf("trial %d: optimum does not sum to y: %v vs %v", trial, sum, y)
		}
		best := logProduct(opt, alpha)
		for probe := 0; probe < 50; probe++ {
			xs := make([]float64, n)
			total := 0.0
			for i := range xs {
				xs[i] = src.Float64()
				total += xs[i]
			}
			for i := range xs {
				xs[i] *= y / total
			}
			if got := logProduct(xs, alpha); got > best+1e-9 {
				t.Fatalf("trial %d: random point beats the Lemma 2.9 optimum: %v > %v",
					trial, got, best)
			}
		}
	}
}
