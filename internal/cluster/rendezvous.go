package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// score is the rendezvous weight of (peer, key): the first eight bytes
// of sha256(name || 0x00 || key). Every node computes the same scores
// from the static peer list alone, so ownership needs no coordination,
// and removing one node remaps only that node's keys.
func score(peerName, key string) uint64 {
	h := sha256.New()
	//optlint:allow errsink hash.Hash writes are documented to never fail
	_, _ = h.Write([]byte(peerName))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key))
	var sum [sha256.Size]byte
	return binary.BigEndian.Uint64(h.Sum(sum[:0]))
}

// Rank orders peers by descending rendezvous weight for key, breaking
// (astronomically unlikely) score ties by name so every node agrees.
func Rank(peers []Peer, key string) []Peer {
	ranked := append([]Peer(nil), peers...)
	sort.SliceStable(ranked, func(i, j int) bool {
		si, sj := score(ranked[i].Name, key), score(ranked[j].Name, key)
		if si != sj {
			return si > sj
		}
		return ranked[i].Name < ranked[j].Name
	})
	return ranked
}

// Owner returns the highest-weight peer for key; ok is false for an
// empty peer list.
func Owner(peers []Peer, key string) (Peer, bool) {
	if len(peers) == 0 {
		return Peer{}, false
	}
	best := peers[0]
	bestScore := score(best.Name, key)
	for _, p := range peers[1:] {
		s := score(p.Name, key)
		if s > bestScore || (s == bestScore && p.Name < best.Name) {
			best, bestScore = p, s
		}
	}
	return best, true
}
