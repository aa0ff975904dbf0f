package sharing

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"sort"

	"wmcs/internal/engine"
)

// This file holds the two Shapley reductions (DESIGN.md §14): the exact
// 2^k enumeration and the sampled permutation walk, each an order-stable
// fold over a *fixed* partition of the work — enumeration blocks and
// permutation streams whose count depends on k and the sample budget,
// never on the worker count. A pool only decides how many partition
// cells run at once, so Shapley.Shares and SampledShapley.SharesCert
// (the nil-pool calls) and every pool width produce the same bytes.

// shapleyBlockBits bounds the number of enumeration blocks the exact
// method partitions 2^k subsets into: 2^min(k,shapleyBlockBits)
// contiguous blocks. 64 blocks keeps the fixed merge cheap while leaving
// enough cells to feed any realistic pool width; the count is a function
// of k alone, never of the pool, which is what makes the reduction
// width-stable.
const shapleyBlockBits = 6

// sampledStreams is the fixed number of permutation streams the sampled
// method shards its samples into. Like the block count it is a
// constant, not the worker count: stream j always draws the same
// permutations from its own FNV(seed‖j‖R) generator, so the estimate is
// identical whether the streams run on one core or sixteen.
const sampledStreams = 8

// shapleyBlocks returns the fixed (blockCount, blockSize) partition of
// the 2^k local-mask space. blockSize·blockCount == 2^k exactly (both
// are powers of two).
func shapleyBlocks(k int) (count, size uint64) {
	bb := shapleyBlockBits
	if k < bb {
		bb = k
	}
	count = 1 << uint(bb)
	size = (uint64(1) << uint(k)) / count
	return count, size
}

// SharesParallel computes exact Shapley shares of R with the subset
// enumeration partitioned into the fixed blocks of shapleyBlocks and
// evaluated by the pool's workers. Phase 1 fills a flat cost table
// (one entry per local subset mask, each computed exactly once); phase 2
// accumulates one partial share vector per block and folds them in block
// order. A nil or width-1 pool runs the identical blocked reduction
// serially (that is Shares), so the result is byte-identical at every
// width.
//
// The cost oracle must be safe for concurrent calls when the pool is
// wider than 1 (the oracles in this repo are pure functions). The method
// panics for |R| > 20.
func (s *Shapley) SharesParallel(R []int, pool *engine.Pool) map[int]float64 {
	k := len(R)
	if k == 0 {
		return map[int]float64{}
	}
	if k > 20 {
		panic(fmt.Sprintf("sharing: Shapley.SharesParallel limited to 20 agents, got %d", k))
	}
	local := make([]uint64, k) // local[i] = universe mask bit of R[i]
	for i, a := range R {
		b, ok := s.bit[a]
		if !ok {
			panic(fmt.Sprintf("sharing: agent %d not in universe", a))
		}
		local[i] = 1 << b
	}
	nBlocks, blockSize := shapleyBlocks(k)

	// Phase 1: the subset-cost table, tab[lm] = C(Q(lm)) for every local
	// mask lm. Each entry is written by exactly one block task, and its
	// value depends only on the (deterministic) oracle — never on
	// scheduling. Warm entries come from the cross-call memo, which is
	// read-only for the duration of the parallel section.
	tab := make([]float64, uint64(1)<<uint(k))
	cold := len(s.cache) == 0 // no memo to consult — skip the per-mask probes
	engine.Map(pool, int(nBlocks), func(b int) struct{} {
		members := make([]int, 0, k)
		lo, hi := uint64(b)*blockSize, (uint64(b)+1)*blockSize
		for lm := lo; lm < hi; lm++ {
			if lm == 0 {
				continue // C(∅) = 0, tab already zero
			}
			var gm uint64
			for t := lm; t != 0; t &= t - 1 { // walk set bits only
				gm |= local[bits.TrailingZeros64(t)]
			}
			if !cold {
				if c, ok := s.cache[gm]; ok {
					tab[lm] = c
					continue
				}
			}
			members = members[:0]
			for t := gm; t != 0; t &= t - 1 {
				members = append(members, s.agents[bits.TrailingZeros64(t)])
			}
			tab[lm] = s.cost(members)
		}
		return struct{}{}
	})
	// Publish the misses back into the cross-call memo so later rounds
	// (Moulin–Shenker shrinks R between calls) reuse them. Serial, in
	// ascending mask order: deterministic content either way (the oracle
	// is a function), but keeping one writer keeps the map honest. On a
	// cold memo the map is pre-sized (lm↔gm is a bijection, so every
	// entry is fresh) and inserted without probes; rehash-free growth is
	// a measurable share of the whole call at k = 18.
	if cold {
		s.cache = make(map[uint64]float64, uint64(1)<<uint(k))
	}
	for lm := uint64(1); lm < uint64(1)<<uint(k); lm++ {
		var gm uint64
		for t := lm; t != 0; t &= t - 1 {
			gm |= local[bits.TrailingZeros64(t)]
		}
		if cold {
			s.cache[gm] = tab[lm]
		} else if _, ok := s.cache[gm]; !ok {
			s.cache[gm] = tab[lm]
		}
	}

	// Phase 2: per-block partial share vectors over the flat table.
	kf := s.fact[k]
	fullLM := (uint64(1) << uint(k)) - 1
	parts := engine.Map(pool, int(nBlocks), func(b int) []float64 {
		part := make([]float64, k)
		lo, hi := uint64(b)*blockSize, (uint64(b)+1)*blockSize
		for lm := lo; lm < hi; lm++ {
			qSize := bits.OnesCount64(lm)
			if qSize == k {
				continue
			}
			w := s.fact[qSize] * s.fact[k-qSize-1] / kf
			cq := tab[lm]
			for t := fullLM &^ lm; t != 0; t &= t - 1 { // i ∉ Q, ascending
				i := bits.TrailingZeros64(t)
				part[i] += w * (tab[lm|1<<uint(i)] - cq)
			}
		}
		return part
	})
	// Fixed-order merge: fold the partials in block order, then bind to
	// agent ids. The fold order is part of the determinism contract.
	sums := make([]float64, k)
	for _, part := range parts {
		for i := 0; i < k; i++ {
			sums[i] += part[i]
		}
	}
	shares := make(map[int]float64, k)
	for i, a := range R {
		shares[a] = sums[i]
	}
	return shares
}

// streamSeed derives stream j's generator seed: FNV-1a over a 0xFF tag
// byte, the instance seed, the stream index, and the canonical receiver
// set.
func (s *SampledShapley) streamSeed(j int, sorted []int) int64 {
	h := fnv.New64a()
	var b [8]byte
	h.Write([]byte{0xFF})
	binary.LittleEndian.PutUint64(b[:], uint64(s.seed))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(j))
	h.Write(b[:])
	for _, a := range sorted {
		binary.LittleEndian.PutUint64(b[:], uint64(a))
		h.Write(b[:])
	}
	return int64(h.Sum64())
}

// streamSamples returns how many of the m samples stream j draws: the
// fixed balanced split m = Σ_j (m/S + [j < m mod S]).
func streamSamples(m, j int) int {
	n := m / sampledStreams
	if j < m%sampledStreams {
		n++
	}
	return n
}

// sampledStream is one stream's contribution to the estimate.
type sampledStream struct {
	sums []float64
	// fresh holds subset costs not in the shared memo when streams run
	// concurrently; nil on a serial pool, where streams use the memo
	// directly.
	fresh   map[string]float64
	queries int
	hits    int
}

// SharesCertParallel estimates the Shapley shares of R with the sample
// budget sharded across sampledStreams fixed permutation streams, each
// seeded by streamSeed(j, R), evaluated by the pool's workers and folded
// in stream order, and returns the Hoeffding certificate (see cert).
// Width never changes a byte of either.
//
// The cost oracle must be safe for concurrent calls when the pool is
// wider than 1. Then the shared memo is frozen while the streams run
// (they read it and record fresh costs privately) and the fresh costs
// are folded back afterwards in stream order. On a serial pool the
// streams read and write the memo directly; since the oracle is a
// function, that changes oracle-call counts (Queries, Hits), not bytes.
func (s *SampledShapley) SharesCertParallel(R []int, pool *engine.Pool) (map[int]float64, ApproxCert) {
	k := len(R)
	members := append([]int(nil), R...)
	sort.Ints(members)
	// The certificate's singleton costs also warm the memo before it
	// freezes for the streams.
	cert := s.cert(members)
	if k == 0 {
		return map[int]float64{}, cert
	}
	serial := pool.Workers() <= 1

	idx := make(map[int]int, k)
	for i, a := range members {
		idx[a] = i
	}
	streams := engine.Map(pool, sampledStreams, func(j int) *sampledStream {
		st := &sampledStream{sums: make([]float64, k)}
		if !serial {
			st.fresh = map[string]float64{}
		}
		n := streamSamples(s.samples, j)
		if n == 0 {
			return st
		}
		rng := rand.New(rand.NewSource(s.streamSeed(j, members)))
		perm := make([]int, k)
		prefix := make([]int, 0, k)
		for t := 0; t < n; t++ {
			copy(perm, members)
			rng.Shuffle(k, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			prefix = prefix[:0]
			prev := 0.0
			for _, a := range perm {
				// Insert a into the sorted prefix.
				at := sort.SearchInts(prefix, a)
				prefix = append(prefix, 0)
				copy(prefix[at+1:], prefix[at:])
				prefix[at] = a
				c := st.costOf(s, prefix)
				st.sums[idx[a]] += c - prev
				prev = c
			}
		}
		return st
	})
	// Fold the streams in stream order: sums, counters, then the fresh
	// memo entries. Duplicate fresh keys across streams carry the same
	// value (the oracle is a function), so the merged memo content is
	// deterministic too.
	sums := make([]float64, k)
	for _, st := range streams {
		for i := 0; i < k; i++ {
			sums[i] += st.sums[i]
		}
		s.Queries += st.queries
		s.Hits += st.hits
		for key, c := range st.fresh {
			s.cache[key] = c
		}
	}
	shares := make(map[int]float64, k)
	for i, a := range members {
		shares[a] = sums[i] / float64(s.samples)
	}
	return shares, cert
}

// costOf is costOfSorted for one stream: straight through the shared
// memo on a serial pool, else against the frozen memo with the stream's
// private overlay for fresh subsets.
func (st *sampledStream) costOf(s *SampledShapley, sorted []int) float64 {
	if st.fresh == nil {
		return s.costOfSorted(sorted)
	}
	key := subsetKey(sorted)
	if c, ok := s.cache[key]; ok {
		st.hits++
		return c
	}
	if c, ok := st.fresh[key]; ok {
		st.hits++
		return c
	}
	st.queries++
	c := s.cost(sorted)
	st.fresh[key] = c
	return c
}
