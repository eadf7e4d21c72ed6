// Package lm implements the paper's primary contribution: clustered
// hierarchy location management (CHLM, §3.2) and the accounting of its
// handoff overhead (§4, §5).
//
// Each node v maintains one LM server per hierarchy level k = 1..L.
// The level-k server is found by hashing v against the member clusters
// of v's level-k cluster, then recursively against the members of the
// chosen cluster, down to a single level-0 node — the CHLM adaptation
// of GLS server selection. The paper's two requirements on the hash
// (unambiguous selection, equitable load) are met by rendezvous
// hashing; the GLS circular-successor rule of Eq. (5) is also
// implemented to demonstrate the load skew the paper warns about.
//
// Hashing is keyed on *stable logical cluster IDs* (see
// cluster.IdentityTracker), not on raw clusterhead IDs: a clusterhead
// relabel must not re-home entries whose clusters persist. Ablation A4
// measures the overhead explosion of naive head-ID keying.
package lm

import (
	"fmt"
)

// HashFamily selects one candidate from a list, deterministically.
// keys are the candidates' stable hash keys (logical cluster IDs, or
// level-0 node IDs at the leaf step of the descent); Select returns
// the index of the winner.
type HashFamily interface {
	// Select returns the winning index in keys (which must be
	// non-empty) for the given owner and level.
	Select(owner uint64, level int, keys []uint64) int
	// Name identifies the family in reports.
	Name() string
}

// Rendezvous is highest-random-weight hashing: the candidate
// minimizing FNV-1a(owner, level, key, salt) wins. Changing one
// candidate relocates only the owners that hashed to it, and load is
// equitable because the hash is uniform in all arguments — exactly the
// two CHLM requirements of §3.2.
type Rendezvous struct {
	Salt uint64
}

// Name implements HashFamily.
func (r Rendezvous) Name() string { return "rendezvous" }

// Select implements HashFamily.
//
//manet:hotpath
func (r Rendezvous) Select(owner uint64, level int, keys []uint64) int {
	if len(keys) == 0 {
		panic("lm: Select with no candidates")
	}
	// The (owner, level) prefix is common to every candidate: fold it
	// once.
	prefix := fnvFold(fnvFold(fnvOffset, owner), uint64(level))
	best, bestW := 0, uint64(0)
	for i, key := range keys {
		w := mix64(fnvFold(fnvFold(prefix, key), r.Salt))
		if i == 0 || w < bestW || (w == bestW && key < keys[best]) {
			best, bestW = i, w
		}
	}
	return best
}

// Successor is the GLS rule of Eq. (5): choose the candidate z
// minimizing (z - owner - 1) mod IDSpace, i.e. the least key greater
// than the owner, wrapping circularly. The paper notes (§3.2) that
// applying this rule directly to CHLM's small, clustered candidate
// sets concentrates load ("a disproportionately large number of nodes
// ... selecting 45"); ablation A3 measures that skew.
type Successor struct {
	IDSpace int
}

// Name implements HashFamily.
func (s Successor) Name() string { return "successor" }

// Select implements HashFamily.
func (s Successor) Select(owner uint64, level int, keys []uint64) int {
	if len(keys) == 0 {
		panic("lm: Select with no candidates")
	}
	m := uint64(s.IDSpace)
	if s.IDSpace <= 0 {
		panic(fmt.Sprintf("lm: Successor.IDSpace = %d", s.IDSpace))
	}
	best := 0
	dist := func(k uint64) uint64 { return (k%m + m - owner%m - 1) % m }
	bestD := dist(keys[0])
	for i := 1; i < len(keys); i++ {
		if d := dist(keys[i]); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// The rendezvous weight of a candidate is FNV-1a over the 32
// little-endian bytes of (owner, level, key, salt), followed by the
// splitmix64 finalizer. It is evaluated in closed form: a zero byte's
// round is just h *= fnvPrime, so the k zero bytes above a word's
// highest nonzero byte are one multiply by fnvPrime^k, and only the
// bytes up to that one need individual rounds.
const (
	fnvOffset = 0xCBF29CE484222325
	fnvPrime  = 0x00000100000001B3
)

// fnvZeros[k] is fnvPrime^k: k FNV-1a rounds over zero bytes.
var fnvZeros = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// fnvFold continues FNV-1a state h over the 8 little-endian bytes of
// w: one round per byte up to the highest nonzero one, then a single
// multiply for the zero bytes above it.
//
//manet:hotpath
func fnvFold(h, w uint64) uint64 {
	zeros := 8
	for ; w != 0; w >>= 8 {
		h ^= w & 0xFF
		h *= fnvPrime
		zeros--
	}
	return h * fnvZeros[zeros]
}

// mix64 is the splitmix64 finalizer, the weight's final avalanche.
func mix64(h uint64) uint64 {
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

var (
	_ HashFamily = Rendezvous{}
	_ HashFamily = Successor{}
)
