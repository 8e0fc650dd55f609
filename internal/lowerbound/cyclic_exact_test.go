package lowerbound

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/sim"
)

// cyclicCounts are the exact one-round transitions of one Figure 6 gadget
// as E4 and E5 run it: L = 4, B = 1, Δ = 2L, oracle acknowledgements,
// drain, ties eliminated. counts[S][A] is the number of runs with active
// set S (bit i = path i) that acknowledge exactly the worms of A, over
// every delay tuple in [0, Δ)^|S| and, under priority, every rank order
// of S: 728 runs under serve-first and 3,480 under priority. With all
// three worms active under serve-first, none is acknowledged in 101 of
// 512 runs (0.1973), the mutual-elimination cycle. The counts were
// computed with RunReference; the test logs them in this form, so
//
//	go test -run '^TestCyclicTripleExact$' -v ./internal/lowerbound
//
// regenerates them.
var cyclicCounts = map[optical.Rule][][]int{
	optical.ServeFirst: {
		0: {0, 0, 0, 0, 0, 0, 0, 0},
		1: {0, 8, 0, 0, 0, 0, 0, 0},
		2: {0, 0, 8, 0, 0, 0, 0, 0},
		3: {6, 12, 22, 24, 0, 0, 0, 0},
		4: {0, 0, 0, 0, 8, 0, 0, 0},
		5: {6, 22, 0, 0, 12, 24, 0, 0},
		6: {6, 0, 12, 0, 22, 0, 24, 0},
		7: {101, 60, 60, 67, 60, 67, 67, 30},
	},
	optical.Priority: {
		0: {0, 0, 0, 0, 0, 0, 0, 0},
		1: {0, 8, 0, 0, 0, 0, 0, 0},
		2: {0, 0, 8, 0, 0, 0, 0, 0},
		3: {0, 40, 40, 48, 0, 0, 0, 0},
		4: {0, 0, 0, 0, 8, 0, 0, 0},
		5: {0, 40, 0, 0, 40, 48, 0, 0},
		6: {0, 0, 40, 0, 40, 0, 48, 0},
		7: {0, 509, 509, 455, 509, 455, 455, 180},
	},
}

// TestCyclicTripleExact runs the cyclic triple exhaustively on the engine
// and on the reference simulator and requires both to give the pinned
// transition counts: an exact engine-versus-reference check on the
// gadget of the paper's Figure 6.
func TestCyclicTripleExact(t *testing.T) {
	const L = 4
	c := Cyclic(1, L/2+4, L).Collection
	for rule, wantRuns := range map[optical.Rule]int{optical.ServeFirst: 728, optical.Priority: 3480} {
		orders := func(active []int) [][]int { return [][]int{make([]int, len(active))} }
		if rule == optical.Priority {
			orders = func(active []int) [][]int { return rankOrders(len(active)) }
		}
		checkExact(t, rule.String(), c, rule, orders, wantRuns, cyclicCounts[rule])
	}
}

// staggeredCounts are the exact one-round transitions of one Figure 5
// gadget as E2 builds it, with 3 and with 4 paths: L = 4, B = 1, Δ = 2L,
// D = 2·paths + 4, oracle acknowledgements, drain, ties eliminated, and
// under priority the adversarial ranks of Build.Ranks (path i has rank i).
// counts[S][A] is as in cyclicCounts, over 728 runs per rule with 3 paths
// and 6,560 with 4. With all four worms active, none is acknowledged in 85
// of 4,096 runs under serve-first, and under priority the top-rank worm
// always is. The counts were computed with RunReference; the test
// logs them in this form, so
//
//	go test -run '^TestStaggeredExact$' -v ./internal/lowerbound
//
// regenerates them. The counts for 5 and 6 paths (59,048 and 531,440 runs
// per rule) live in testdata, one file per case (see pinFile); the
// reference takes minutes on them, so the test runs only the engine
// against those pins unless asked to recompute them with the reference:
//
//	go test ./internal/lowerbound -run '^TestStaggeredExact$' -regenerate
var staggeredCounts = map[int]map[optical.Rule][][]int{
	3: {
		optical.ServeFirst: {
			0: {0, 0, 0, 0, 0, 0, 0, 0},
			1: {0, 8, 0, 0, 0, 0, 0, 0},
			2: {0, 0, 8, 0, 0, 0, 0, 0},
			3: {6, 12, 22, 24, 0, 0, 0, 0},
			4: {0, 0, 0, 0, 8, 0, 0, 0},
			5: {0, 0, 0, 0, 0, 64, 0, 0},
			6: {6, 0, 12, 0, 22, 0, 24, 0},
			7: {17, 21, 33, 53, 110, 160, 64, 54},
		},
		optical.Priority: {
			0: {0, 0, 0, 0, 0, 0, 0, 0},
			1: {0, 8, 0, 0, 0, 0, 0, 0},
			2: {0, 0, 8, 0, 0, 0, 0, 0},
			3: {0, 0, 40, 24, 0, 0, 0, 0},
			4: {0, 0, 0, 0, 8, 0, 0, 0},
			5: {0, 0, 0, 0, 0, 64, 0, 0},
			6: {0, 0, 0, 0, 40, 0, 24, 0},
			7: {0, 0, 0, 0, 182, 138, 138, 54},
		},
	},
	4: {
		optical.ServeFirst: {
			0:  {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			1:  {0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			2:  {0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			3:  {6, 12, 22, 24, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			4:  {0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			5:  {0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			6:  {6, 0, 12, 0, 22, 0, 24, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			7:  {17, 21, 33, 53, 110, 160, 64, 54, 0, 0, 0, 0, 0, 0, 0, 0},
			8:  {0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0},
			9:  {0, 0, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0},
			10: {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0},
			11: {0, 0, 0, 0, 0, 0, 0, 0, 48, 96, 176, 192, 0, 0, 0, 0},
			12: {6, 0, 0, 0, 12, 0, 0, 0, 22, 0, 0, 0, 24, 0, 0, 0},
			13: {0, 48, 0, 0, 0, 96, 0, 0, 0, 176, 0, 0, 0, 192, 0, 0},
			14: {17, 0, 21, 0, 33, 0, 53, 0, 110, 0, 160, 0, 64, 0, 54, 0},
			15: {85, 129, 57, 37, 165, 282, 147, 95, 444, 610, 434, 562, 322, 427, 138, 162},
		},
		optical.Priority: {
			0:  {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			1:  {0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			2:  {0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			3:  {0, 0, 40, 24, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			4:  {0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			5:  {0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			6:  {0, 0, 0, 0, 40, 0, 24, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			7:  {0, 0, 0, 0, 182, 138, 138, 54, 0, 0, 0, 0, 0, 0, 0, 0},
			8:  {0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0},
			9:  {0, 0, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0},
			10: {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0},
			11: {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 320, 192, 0, 0, 0, 0},
			12: {0, 0, 0, 0, 0, 0, 0, 0, 40, 0, 0, 0, 24, 0, 0, 0},
			13: {0, 0, 0, 0, 0, 0, 0, 0, 0, 320, 0, 0, 0, 192, 0, 0},
			14: {0, 0, 0, 0, 0, 0, 0, 0, 182, 0, 138, 0, 138, 0, 54, 0},
			15: {0, 0, 0, 0, 0, 0, 0, 0, 766, 690, 834, 270, 690, 414, 270, 162},
		},
	},
}

// regenerate makes TestStaggeredExact recompute the testdata counts of
// its 5- and 6-path cases with the reference simulator and rewrite them.
var regenerate = flag.Bool("regenerate", false, "recompute the staggered structures' testdata counts with RunReference")

// TestStaggeredExact runs a staggered structure of 3 to 6 paths
// exhaustively, under serve-first and under priority with the adversarial
// ranks of Section 2.2, and requires the pinned transition counts: from
// the engine and the reference simulator with 3 and 4 paths, and from the
// engine against the reference's testdata counts with 5 and 6. The 6-path
// case is skipped under the race detector, which slows the engine about
// tenfold; it has its own non-race CI step.
func TestStaggeredExact(t *testing.T) {
	const L = 4
	for _, tc := range []struct{ per, runs int }{{3, 728}, {4, 6560}, {5, 59048}, {6, 531440}} {
		if tc.per == 6 && raceEnabled {
			t.Log("6 paths: skipped under -race")
			continue
		}
		b := Staggered(1, tc.per, 2*tc.per+4, L)
		adversarial := func(active []int) [][]int {
			ranks := make([]int, len(active))
			for j, i := range active {
				ranks[j] = b.Ranks[i]
			}
			return [][]int{ranks}
		}
		for _, rule := range []optical.Rule{optical.ServeFirst, optical.Priority} {
			name := fmt.Sprintf("%d paths, %v", tc.per, rule)
			if want, ok := staggeredCounts[tc.per][rule]; ok {
				checkExact(t, name, b.Collection, rule, adversarial, tc.runs, want)
				continue
			}
			got, runs := exactCounts(t, b.Collection, rule, adversarial, sim.NewEngine().Run)
			if runs != tc.runs {
				t.Errorf("%s: %d runs, want %d", name, runs, tc.runs)
			}
			file := pinFile(tc.per, rule)
			if *regenerate {
				ref, _ := exactCounts(t, b.Collection, rule, adversarial, sim.RunReference)
				if err := writeCounts(file, ref); err != nil {
					t.Fatal(err)
				}
			}
			want, err := readCounts(file)
			if err != nil {
				t.Fatal(err)
			}
			if !equalCounts(got, want) {
				t.Errorf("%s: engine counts differ from the reference's in %s:\n%s", name, file, literal(got))
			}
		}
	}
}

// checkExact requires the reference simulator and the engine to tally
// want over wantRuns runs of one gadget of c (see exactCounts), and logs
// the reference's tally in the pinned form, under name.
func checkExact(t *testing.T, name string, c *paths.Collection, rule optical.Rule, orders func(active []int) [][]int, wantRuns int, want [][]int) {
	t.Helper()
	ref, runs := exactCounts(t, c, rule, orders, sim.RunReference)
	got, _ := exactCounts(t, c, rule, orders, sim.NewEngine().Run)
	if runs != wantRuns {
		t.Errorf("%s: %d runs, want %d", name, runs, wantRuns)
	}
	t.Logf("%s counts from the reference:\n%s", name, literal(ref))
	if !equalCounts(ref, want) || !equalCounts(got, want) {
		t.Errorf("%s: reference counts\n%s\nengine counts\n%s\npinned\n%s", name, literal(ref), literal(got), literal(want))
	}
}

// exactCounts runs one gadget of c exhaustively on run, as the
// lower-bound tables run it (L = 4, B = 1, Δ = 2L, oracle
// acknowledgements): every active subset S of its paths, every delay
// tuple in [0, Δ)^|S| and every rank assignment orders(S) yields, ranks
// listed in the order of S. counts[S][A] is the number of runs with active
// set S (bit i = path i) that acknowledge exactly the worms of A; runs is
// their total.
func exactCounts(t *testing.T, c *paths.Collection, rule optical.Rule, orders func(active []int) [][]int,
	run func(*graph.Graph, []sim.Worm, sim.Config) (*sim.Result, error)) (counts [][]int, runs int) {
	t.Helper()
	const L, B, delta = 4, 1, 8
	k := c.Size()
	g := c.Graph()
	cfg := sim.Config{Bandwidth: B, Rule: rule}
	counts = make([][]int, 1<<k)
	for set := range counts {
		counts[set] = make([]int, 1<<k)
	}
	for set := 1; set < 1<<k; set++ {
		var active []int
		for i := range k {
			if set>>i&1 == 1 {
				active = append(active, i)
			}
		}
		worms := make([]sim.Worm, len(active))
		rankings := orders(active)
		for tuple := range pow(delta, len(active)) {
			for _, ranks := range rankings {
				for j, i := range active {
					worms[j] = sim.Worm{Route: c.Route(i), Length: L,
						Delay: tuple / pow(delta, j) % delta, Rank: ranks[j]}
				}
				r, err := run(g, worms, cfg)
				if err != nil {
					t.Fatal(err)
				}
				counts[set][ackedSet(r, active)]++
				runs++
			}
		}
	}
	return counts, runs
}

func equalCounts(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal[[]int]) }

// pinFile is the testdata file holding the reference's counts for a
// staggered structure of per paths under rule.
func pinFile(per int, rule optical.Rule) string {
	return filepath.Join("testdata", fmt.Sprintf("staggered%d-%v.json", per, rule))
}

// readCounts reads a counts table written by writeCounts.
func readCounts(file string) ([][]int, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var counts [][]int
	if err := json.Unmarshal(data, &counts); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return counts, nil
}

// writeCounts writes a counts table as a JSON array, one row a line.
func writeCounts(file string, counts [][]int) error {
	var b strings.Builder
	b.WriteString("[\n")
	for set, row := range counts {
		line, err := json.Marshal(row)
		if err != nil {
			return err
		}
		b.Write(line)
		if set < len(counts)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return os.WriteFile(file, []byte(b.String()), 0o644)
}

// ackedSet is the set of active worms a run acknowledged, bit i for path i.
func ackedSet(r *sim.Result, active []int) int {
	set := 0
	for k, i := range active {
		if r.Outcomes[k].Acked {
			set |= 1 << i
		}
	}
	return set
}

// rankOrders lists every permutation of the ranks 0..k-1.
func rankOrders(k int) [][]int {
	if k == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range rankOrders(k - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int{}, p[:at]...), k-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

func pow(b, e int) int {
	r := 1
	for range e {
		r *= b
	}
	return r
}

// literal renders counts as the Go literal the pinned tables hold.
func literal(c [][]int) string {
	var b strings.Builder
	b.WriteString("{\n")
	for set, row := range c {
		fmt.Fprintf(&b, "\t%d: {", set)
		for a, n := range row {
			if a > 0 {
				b.WriteString(", ")
			}
			fmt.Fprint(&b, n)
		}
		b.WriteString("},\n")
	}
	b.WriteString("}")
	return b.String()
}
