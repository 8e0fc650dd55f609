// Package paths implements path collections — the routing problems of the
// paper. A path collection P is a multiset of paths in a network; the
// Trial-and-Failure protocol routes one worm along each path of P.
//
// The package provides the paper's problem parameters (size n, dilation D,
// path congestion C-tilde), the classification predicates (leveled,
// short-cut free), the path-selection strategies used by the application
// theorems (dimension-order for meshes/tori, bit-fixing for hypercubes,
// unique butterfly paths, translation-invariant systems for node-symmetric
// networks), and the standard workload generators (permutations, random
// functions, random q-functions).
package paths

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/graph"
)

// Collection is a multiset of paths in one network, each checked and
// resolved to a route once, when the collection is made. Its conflict
// structure (the link-user index, the congestion metrics) is computed at
// most once, under mu, and is immutable afterwards, so a Collection may be
// shared by concurrent readers (e.g. parallel Monte-Carlo trials): the
// first reader computes, the others wait for it.
type Collection struct {
	g        *graph.Graph
	paths    []graph.Path
	routes   []graph.Route // routes[i] is paths[i] checked; their links share one table
	dilation int           // D, computed at construction

	mu sync.Mutex
	// Built on first use: the link-user index with the edge congestion,
	// and PathCongestions with its maximum C-tilde.
	index    *LinkIndex //optlint:guardedby mu
	edgeCong int        //optlint:guardedby mu
	cong     []int      //optlint:guardedby mu
	pathCong int        //optlint:guardedby mu
	// congBuilds counts congestion computations; a test pins it to 1.
	congBuilds int //optlint:guardedby mu
}

// NewCollection checks every path against g and returns the collection.
// Paths of length zero (single nodes) are rejected: a worm needs at least
// one link to traverse. A path that revisits a directed link is accepted;
// the simulator refuses to route it.
func NewCollection(g *graph.Graph, ps []graph.Path) (*Collection, error) {
	routes, err := g.Routes(ps)
	if err != nil {
		return nil, fmt.Errorf("paths: %w", err)
	}
	d := 0
	for _, r := range routes {
		d = max(d, r.Len())
	}
	return &Collection{g: g, paths: ps, routes: routes, dilation: d}, nil
}

// MustCollection is NewCollection that panics on error; intended for
// generators whose output is correct by construction.
func MustCollection(g *graph.Graph, ps []graph.Path) *Collection {
	c, err := NewCollection(g, ps)
	if err != nil {
		panic(err)
	}
	return c
}

// Graph returns the underlying network.
func (c *Collection) Graph() *graph.Graph { return c.g }

// Size returns n, the number of paths (and of worms to route).
func (c *Collection) Size() int { return len(c.paths) }

// Path returns the i-th path. The caller must not modify it.
func (c *Collection) Path(i int) graph.Path { return c.paths[i] }

// Route returns path i's route, checked against the collection's graph.
func (c *Collection) Route(i int) graph.Route { return c.routes[i] }

// LinkIndex is a collection's dense link-user index in compressed sparse
// row form: the paths using directed link l are users[userOff[l]:
// userOff[l+1]], in ascending path order (a path crossing l twice is listed
// twice). It is built once and never modified, so any number of goroutines
// may read it without locking.
type LinkIndex struct {
	routes  []graph.Route
	userOff []int32 // NumLinks()+1 offsets into users
	users   []int32
}

// PathLinks returns the directed link IDs of path i. The caller must not
// modify the result.
func (x *LinkIndex) PathLinks(i int) []int32 { return x.routes[i].Links() }

// Users returns the indices of the paths using directed link id. The caller
// must not modify the result.
func (x *LinkIndex) Users(id graph.LinkID) []int32 {
	return x.users[x.userOff[id]:x.userOff[id+1]]
}

// Index returns the collection's link-user index, building it on first use.
func (c *Collection) Index() *LinkIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.indexLocked()
}

// indexLocked builds the link-user index by one counting sort over the
// path links, and the edge congestion with it. c.mu must be held.
//
//optlint:locked mu
func (c *Collection) indexLocked() *LinkIndex {
	if c.index != nil {
		return c.index
	}
	off := make([]int32, c.g.NumLinks()+1)
	for _, r := range c.routes {
		for _, id := range r.Links() {
			off[id+1]++
		}
	}
	for l := 0; l < c.g.NumLinks(); l++ {
		c.edgeCong = max(c.edgeCong, int(off[l+1]))
		off[l+1] += off[l]
	}
	users := make([]int32, off[c.g.NumLinks()])
	next := make([]int32, c.g.NumLinks())
	copy(next, off)
	for i, r := range c.routes {
		for _, id := range r.Links() {
			users[next[id]] = int32(i)
			next[id]++
		}
	}
	c.index = &LinkIndex{routes: c.routes, userOff: off, users: users}
	return c.index
}

// Dilation returns D, the number of links of the longest path (0 for an
// empty collection).
func (c *Collection) Dilation() int { return c.dilation }

// EdgeCongestion returns the commonly used congestion: the maximum, over
// all directed links, of the number of paths using that link. (The paper
// points out this is *not* its C-tilde; see PathCongestion.)
func (c *Collection) EdgeCongestion() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.indexLocked()
	return c.edgeCong
}

// PathCongestion returns C-tilde, the paper's path congestion: the maximum
// over all paths p of the number of paths that share a directed link with
// p, counting p itself. (Counting p itself makes a structure of k
// identical paths have path congestion exactly k, matching the paper's
// type-2 lower-bound structures.) A collection of pairwise link-disjoint
// paths has path congestion 1.
func (c *Collection) PathCongestion() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.congestionLocked()
	return c.pathCong
}

// congestionLocked computes the per-path congestions and their maximum
// once. c.mu must be held.
//
//optlint:locked mu
func (c *Collection) congestionLocked() []int {
	if c.cong != nil {
		return c.cong
	}
	x := c.indexLocked()
	if x.bitsCheaper() {
		c.cong = x.congestionsByBits()
	} else {
		c.cong = x.congestionsByStamps()
	}
	for _, k := range c.cong {
		c.pathCong = max(c.pathCong, k)
	}
	c.congBuilds++
	return c.cong
}

// maxCongestionBitWords caps the per-link bitsets at 32 MiB.
const maxCongestionBitWords = 1 << 22

// bitsCheaper picks between the two exact per-path congestion methods by
// their cost on this index. Stamping visits every user of every link of
// every path: the sum over links of users^2 steps, which dominates when
// many long paths overlap (a random function on a chain). Bitsets over the
// n paths cost n/64 words per path crossing plus n/64 words of memory per
// used link, so they win only there, and only while they stay small.
func (x *LinkIndex) bitsCheaper() bool {
	words := (len(x.routes) + 63) / 64
	stampCost, used := 0, 0
	for l := 0; l+1 < len(x.userOff); l++ {
		u := int(x.userOff[l+1] - x.userOff[l])
		stampCost += u * u
		if u > 0 {
			used++
		}
	}
	return used*words <= maxCongestionBitWords && (len(x.users)+used)*words < stampCost
}

// congestionsByStamps counts each path's distinct co-users with a
// generation-stamped mark (stamp i+1 for path i).
func (x *LinkIndex) congestionsByStamps() []int {
	cong := make([]int, len(x.routes))
	mark := make([]int32, len(x.routes))
	for i, r := range x.routes {
		stamp := int32(i + 1)
		count := 0
		for _, id := range r.Links() {
			for _, j := range x.Users(int(id)) {
				if mark[j] != stamp {
					mark[j] = stamp
					count++
				}
			}
		}
		cong[i] = count
	}
	return cong
}

// congestionsByBits gives every used link a bitset of its users and counts
// each path's co-users as the population of the union of its links' sets.
func (x *LinkIndex) congestionsByBits() []int {
	n := len(x.routes)
	words := (n + 63) / 64
	row := make([]int32, len(x.userOff)-1) // link -> bitset row, used links only
	used := int32(0)
	for l := range row {
		if x.userOff[l+1] > x.userOff[l] {
			row[l] = used
			used++
		}
	}
	sets := make([]uint64, int(used)*words)
	for l := range row {
		set := sets[int(row[l])*words:]
		for _, j := range x.Users(l) {
			set[j>>6] |= 1 << (j & 63)
		}
	}
	cong := make([]int, n)
	acc := make([]uint64, words)
	for i, r := range x.routes {
		clear(acc)
		for _, id := range r.Links() {
			set := sets[int(row[id])*words:][:words]
			for w, b := range set {
				acc[w] |= b
			}
		}
		count := 0
		for _, b := range acc {
			count += bits.OnesCount64(b)
		}
		cong[i] = count
	}
	return cong
}

// SharePairs calls fn for every unordered pair (i, j), i < j, of distinct
// paths that share at least one directed link. Each pair is reported once,
// in a deterministic order: ascending i, then the order in which j's
// shared links appear along path i.
func (c *Collection) SharePairs(fn func(i, j int)) {
	x := c.Index()
	mark := make([]int32, len(c.paths)) // mark[j] = i+1 once pair (i, j) is reported
	for i, r := range x.routes {
		stamp := int32(i + 1)
		for _, id := range r.Links() {
			for _, j := range x.Users(int(id)) {
				if int(j) > i && mark[j] != stamp {
					mark[j] = stamp
					fn(i, int(j))
				}
			}
		}
	}
}

// Stats summarizes the paper's problem parameters for a collection.
type Stats struct {
	N              int // number of paths
	Dilation       int // D
	EdgeCongestion int // max paths per directed link
	PathCongestion int // C-tilde
	Leveled        bool
	ShortCutFree   bool
}

// ComputeStats evaluates all parameters. The short-cut free check is
// quadratic in the number of interacting path pairs; for very large
// collections prefer calling the individual accessors.
func (c *Collection) ComputeStats() Stats {
	return Stats{
		N:              c.Size(),
		Dilation:       c.Dilation(),
		EdgeCongestion: c.EdgeCongestion(),
		PathCongestion: c.PathCongestion(),
		Leveled:        c.IsLeveled(),
		ShortCutFree:   c.IsShortCutFree(),
	}
}

// String renders the stats in one line.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d D=%d C=%d C~=%d leveled=%t shortcutfree=%t",
		s.N, s.Dilation, s.EdgeCongestion, s.PathCongestion, s.Leveled, s.ShortCutFree)
}
