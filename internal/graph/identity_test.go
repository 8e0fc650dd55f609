package graph_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/graph"
	"repro/internal/lowerbound"
	"repro/internal/topology"
)

// digest hashes what every consumer of a graph reads: the node count, the
// link table in ID order, and each node's (neighbor, link) row in scan
// order.
func digest(g *graph.Graph) string {
	var buf []byte
	put := func(v int) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	put(g.NumNodes())
	put(g.NumLinks())
	for id := 0; id < g.NumLinks(); id++ {
		l := g.Link(id)
		put(l.From)
		put(l.To)
	}
	for u := 0; u < g.NumNodes(); u++ {
		row := graph.Row(g, u)
		put(len(row))
		for _, e := range row {
			put(e[0])
			put(e[1])
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestGraphIdentityDigests pins every generator's graph, link IDs and
// per-node order included: every table, job key and stored digest
// downstream depends on these exact layouts.
func TestGraphIdentityDigests(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"mesh(2,7)", topology.NewMesh(2, 7).Graph()},
		{"mesh(3,4)", topology.NewMesh(3, 4).Graph()},
		{"torus(2,8)", topology.NewTorus(2, 8).Graph()},
		{"torus(3,3)", topology.NewTorus(3, 3).Graph()},
		{"hypercube(3)", topology.NewHypercube(3).Graph()},
		{"hypercube(5)", topology.NewHypercube(5).Graph()},
		{"butterfly(2)", topology.NewButterfly(2).Graph()},
		{"butterfly(3)", topology.NewButterfly(3).Graph()},
		{"wrapped-butterfly(3)", topology.NewWrappedButterfly(3).Graph()},
		{"wrapped-butterfly(4)", topology.NewWrappedButterfly(4).Graph()},
		{"ccc(3)", topology.NewCCC(3).Graph()},
		{"ccc(4)", topology.NewCCC(4).Graph()},
		{"star(4)", topology.NewStarGraph(4).Graph()},
		{"star(5)", topology.NewStarGraph(5).Graph()},
		{"chain(2)", topology.NewChain(2).Graph()},
		{"chain(9)", topology.NewChain(9).Graph()},
		{"ring(3)", topology.NewRing(3).Graph()},
		{"ring(10)", topology.NewRing(10).Graph()},
		{"circulant(8,[1 3])", topology.NewCirculant(8, []int{1, 3}).Graph()},
		{"circulant(13,[2 5])", topology.NewCirculant(13, []int{2, 5}).Graph()},
		{"circulant(12,[1 5 1])", topology.NewCirculant(12, []int{1, 5, 1}).Graph()},
		{"circulant(10,[3 3])", topology.NewCirculant(10, []int{3, 3}).Graph()},
		{"circulant(8,[4])", topology.NewCirculant(8, []int{4}).Graph()},
		{"circulant(10,[5 1 5])", topology.NewCirculant(10, []int{5, 1, 5}).Graph()},
		{"circulant(40,[1..9])", topology.NewCirculant(40, []int{1, 2, 3, 4, 5, 6, 7, 8, 9}).Graph()},
		{"staggered(2,3,8,3)", lowerbound.Staggered(2, 3, 8, 3).Graph},
		{"staggered(3,4,6,2)", lowerbound.Staggered(3, 4, 6, 2).Graph},
		{"cyclic(2,8,4)", lowerbound.Cyclic(2, 8, 4).Graph},
		{"cyclic(3,6,2)", lowerbound.Cyclic(3, 6, 2).Graph},
		{"identical(2,3,5)", lowerbound.Identical(2, 3, 5).Graph},
		{"identical(4,2,7)", lowerbound.Identical(4, 2, 7).Graph},
	}
	// Recorded when chains, rings, circulants, CCCs and star graphs still
	// added their edges one at a time, dropping repeats through a map.
	want := map[string]string{
		"mesh(2,7)":             "558c84125b8c7063f25fe16289cafb5f1a86a61dc6d20e17d466448781daa50c",
		"mesh(3,4)":             "e044ea13810e6b801efad2e50027a457d6918a9f6f96bc0c570fc3ff2c565de3",
		"torus(2,8)":            "9551db06a10d9d8226e01f7210228b8f5cbb4aafa863feedd358e7fd83115673",
		"torus(3,3)":            "dba8e71f8896fb2848db4e32ead94338a8e78a8ad7f820783415559f9a367935",
		"hypercube(3)":          "beaba27723442e09a559acbb2d7c50cbcbabf8ea318f6f6450217fd814f44a91",
		"hypercube(5)":          "d9799cd5edd8fa6bd41bc3cb91b998825074205f4b12c2d4283e625bf8e9306f",
		"butterfly(2)":          "d883b50a0f98c704439acd4ed27c63a786f80fd02746171cfc62755af33755eb",
		"butterfly(3)":          "1330313d823e66facb2b3c30a5ff36bdefe41f29691e620f2cafc4b5f433f469",
		"wrapped-butterfly(3)":  "8789b2a4aab30b686237bffc56c7a0f8b0aa2baca848cb7b1c7f93db2ad0516c",
		"wrapped-butterfly(4)":  "b7329e29772ad5526b2a21cf2232fceadce3200781e99bdf232a67a89d7e0fc3",
		"ccc(3)":                "fd2b7135a046bbd7f513c58dfbb465e6528687c219de77e474b42a7515a79c8e",
		"ccc(4)":                "2973d7c3ef19d8ae41758500bb498fc3f24456e07d703c86cb8611515f7066cf",
		"star(4)":               "3f2d76db5cf2850a09d7e7a615abf2eebf527c46eb44154d11cd5d8d0d8b02aa",
		"star(5)":               "c505a182e01343e5c99dda16d50c4f27c02606e7a4c260740f6ddab9efa4f174",
		"chain(2)":              "a6f11ef1ef7e06ef78a9f2c2f8a78e0074819dfe89ca5b2d9dde5247206d420b",
		"chain(9)":              "de91ec751ffb38fb63c2b9c66eb72cfa1379f16078720670566fd7d5bc7490ec",
		"ring(3)":               "ef86acb180a11a6e79ae308ce26c10f8918cb81d346bef0b48430d1858a9f704",
		"ring(10)":              "035f46ba4b415279e768105d315769ec5c6525bc9ccc3cba5e3596aeb2ab7fef",
		"circulant(8,[1 3])":    "f789bd98f7d4da5d214376b18fc5428eeb5fe3c8b6dd4f64b3604c94437d0bc6",
		"circulant(13,[2 5])":   "b11091ede4958515e331e03b6214ab8087bec39cc459476c4279fa7f08800e9a",
		"circulant(12,[1 5 1])": "2904ae3d6d8f79a6980056b70e1dcb3bbd10a181859beeeb40856b890063aab9",
		"circulant(10,[3 3])":   "7b7efaa27a9312866366f122f94da6b2902996eb2add28309db1e3d776b1d2a1",
		"circulant(8,[4])":      "2f961304b35d7fb1a508dbe0bd0fde98200cf29301c2f46909cb36def642d62b",
		"circulant(10,[5 1 5])": "389f0cc5b1e7052a4a05820e496be51958aaa5b9bb44dbe759261b1f26be19f5",
		"circulant(40,[1..9])":  "86f5c86de4163fa9b8f79a3172509a9f0c0072afd65e0d3f68e5fa9d09c6c47f",
		"staggered(2,3,8,3)":    "d86da8238eca29dac7bec3a8c9e2b87c6df86812b41a5ba5e72034a9580c062d",
		"staggered(3,4,6,2)":    "ea1da38a9e2dc60531bf72253cfc05e59619e395ebae3ef51566f8954d01cc2a",
		"cyclic(2,8,4)":         "dc49b47394546759bbdfddb02392150e283c9e51466d81555663068e4f7ccdb9",
		"cyclic(3,6,2)":         "eb235052de74a4345b0120e14333de1a06d3b8ff7b15302a118a65d1fa785abb",
		"identical(2,3,5)":      "f35ad6c0c60c825d4f7ed62fa4f5b5295c18f2a5039240951fa4f11f670b6788",
		"identical(4,2,7)":      "a66b7a3cf16bc0a932ef1eaa45cd2203506c98209d7a62282b055d28bc7abc98",
	}
	for _, tc := range graphs {
		if got := digest(tc.g); got != want[tc.name] {
			t.Errorf("%s: digest %s, want %s", tc.name, got, want[tc.name])
		}
	}
}
