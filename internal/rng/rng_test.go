package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: same seed diverged: %d != %d", i, got, want)
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 30} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from expected %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	check := func(n uint8) bool {
		p := r.Perm(int(n))
		if len(p) != int(n) {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(11)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("first element %d appeared %d times, expected ~%.0f", i, c, want)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(123)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split children produced %d identical outputs", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	p1 := New(55)
	p2 := New(55)
	c1 := p1.Split()
	c2 := p2.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split is not deterministic given identical parent state")
		}
	}
}

func TestSplitN(t *testing.T) {
	children := New(9).SplitN(8)
	if len(children) != 8 {
		t.Fatalf("SplitN(8) returned %d children", len(children))
	}
	outs := map[uint64]bool{}
	for _, c := range children {
		outs[c.Uint64()] = true
	}
	if len(outs) != 8 {
		t.Fatalf("children first outputs collide: %d distinct of 8", len(outs))
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
