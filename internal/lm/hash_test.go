package lm

import (
	"encoding/binary"
	"testing"
)

// refHash4 is the byte-at-a-time definition of the rendezvous weight:
// FNV-1a over the 32 little-endian bytes of (a, b, c, d), then the
// splitmix64 finalizer. Rendezvous.Select must agree with an argmin
// over it exactly.
func refHash4(a, b, c, d uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 0x00000100000001B3
	)
	h := uint64(offset)
	for _, w := range [4]uint64{a, b, c, d} {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xFF
			h *= prime
		}
	}
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// refSelect is the argmin over refHash4, ties broken by the lower key
// (the earliest index among equal keys).
func refSelect(owner uint64, level int, keys []uint64, salt uint64) int {
	best := 0
	bestW := refHash4(owner, uint64(level), keys[0], salt)
	for i := 1; i < len(keys); i++ {
		w := refHash4(owner, uint64(level), keys[i], salt)
		if w < bestW || (w == bestW && keys[i] < keys[best]) {
			best, bestW = i, w
		}
	}
	return best
}

func checkAgainstReference(t *testing.T, owner uint64, level int, keys []uint64, salt uint64) {
	t.Helper()
	for _, k := range keys {
		got := mix64(fnvFold(fnvFold(fnvFold(fnvFold(fnvOffset, owner), uint64(level)), k), salt))
		if want := refHash4(owner, uint64(level), k, salt); got != want {
			t.Fatalf("weight(owner=%#x, level=%d, key=%#x, salt=%#x) = %#x, reference %#x",
				owner, level, k, salt, got, want)
		}
	}
	r := Rendezvous{Salt: salt}
	if got, want := r.Select(owner, level, keys), refSelect(owner, level, keys, salt); got != want {
		t.Fatalf("Select(owner=%#x, level=%d, keys=%#x, salt=%#x) = %d, reference %d",
			owner, level, keys, salt, got, want)
	}
}

func TestRendezvousMatchesReference(t *testing.T) {
	words := []uint64{
		0, 1, 2, 0x7F, 0xFF, 0x100, 0x1FF, 0xFFFF, 0x10000,
		0x00FF00, 0x0100000001, 0x00FF00FF00, 1 << 56, 0x80 << 56,
		^uint64(0) >> 8, ^uint64(0),
	}
	salts := []uint64{0, 7, 0xFF, 0x0100000001, 1 << 63, ^uint64(0)}
	levels := []int{0, 1, 3, 255, 256, 1 << 20}
	keyLists := [][]uint64{
		{42},                  // single candidate
		{5, 5, 5},             // all tied on key
		{9, 3, 9, 3},          // duplicate keys: ties broken by key
		{3, 8, 15, 42},        // small logical IDs
		words,                 // every edge-case word as a candidate
		{^uint64(0), 0, 1},    // extremes
		{0x100, 0x1, 0x10000}, // interior-zero neighbours
	}
	for _, salt := range salts {
		for _, owner := range words {
			for _, level := range levels {
				for _, keys := range keyLists {
					checkAgainstReference(t, owner, level, keys, salt)
				}
			}
		}
	}
}

func FuzzRendezvousSelect(f *testing.F) {
	f.Add(uint64(0), 1, uint64(0), []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(0xFF), 3, uint64(0x0100000001), []byte{
		0, 0xFF, 0, 0, 0, 0, 0, 0,
		1, 0, 0, 0, 1, 0, 0, 0,
	})
	f.Add(^uint64(0), 256, uint64(1)<<56, []byte{
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
	})
	f.Fuzz(func(t *testing.T, owner uint64, level int, salt uint64, keysBytes []byte) {
		n := len(keysBytes) / 8
		if n == 0 {
			return
		}
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(keysBytes[8*i:])
		}
		checkAgainstReference(t, owner, level, keys, salt)
	})
}
