package gbt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// digest hashes the ensemble node for node: base score, then every tree's
// nodes in storage order (feature, threshold bits, children, leaf value
// bits).
func digest(m *Model) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(math.Float64bits(m.base))
	for _, t := range m.trees {
		put(uint64(len(t.nodes)))
		for _, n := range t.nodes {
			put(uint64(int64(n.feature)))
			put(math.Float64bits(n.threshold))
			put(uint64(n.left))
			put(uint64(n.right))
			put(math.Float64bits(n.value))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The digests were generated on the parent of the commit that made
// growTree split in place over one histogram buffer (allocating
// histograms, append-grown left/right): the trees must not move by a bit.
func TestTrainMatchesParentGoldenDigest(t *testing.T) {
	x, y := trainFixture()
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"all-rows", Config{NumTrees: 30, MaxDepth: 4, LearningRate: 0.1, Subsample: 1, MaxBins: 32, Seed: 2}, "335efc249d1b95aa53388e794b86ad08f0dfeb9757375842c1b3bec7fe4bed08"},
		{"subsample", Config{NumTrees: 30, MaxDepth: 4, LearningRate: 0.1, Subsample: 0.7, MaxBins: 32, Seed: 2}, "ede0f169234970e86f048bf75d5c545b8a2d6634bde01facf9a4a095d5b5e8e2"},
		{"gamma-deep", Config{NumTrees: 20, MaxDepth: 6, LearningRate: 0.1, Subsample: 0.5, MaxBins: 16, Objective: Gamma, Seed: 5}, "e16d88c9b6cdcee668ba15c2923dfccd2f61401380984229762e19aaa019c936"},
	} {
		m, err := Train(x, y, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := digest(m); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
