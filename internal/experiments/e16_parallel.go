package experiments

import (
	"fmt"
	"math"
	"math/bits"

	"wmcs/internal/sharing"
	"wmcs/internal/stats"
)

// E16 and E16b time the exact-Shapley enumeration (DESIGN.md §14): the
// blocked flat-table fold of Shapley.SharesParallel against the
// map-memoized enumeration it replaced (memoMapShapley, kept here only
// as this control) on the identical instance. The pair follows the
// E15/E15b convention — the measured signal is benchtab
// -timings wall_ms, gated in CI as E16 <= 0.4 * E16b. On a single-core
// runner the gap is the algorithmic one (a flat 2^k cost table and
// per-block partial sums instead of ~2^k·k memo-map probes); on a
// multi-core runner the same blocked reduction additionally spreads its
// blocks across the pool, with bytes unchanged at any width.

// e16K is the enumeration size: 2^18 subsets, the "k ≥ 18 receivers"
// point the exact tier is specified to handle.
const e16K = 18

// e16Cost builds the shared oracle: k agents each covering a fixed
// random subset of m weighted ground elements, C(R) = total weight
// covered. Monotone and submodular (coverage), and cheap — a few OR and
// bit-walk ops — so the 2^k enumeration machinery, not the oracle,
// dominates what the pair times.
func e16Cost(k int) (agents []int, cost sharing.CostFunc) {
	const m = 48
	rng := setupRNG(161, 0)
	weights := make([]float64, m)
	for e := range weights {
		weights[e] = 1 + rng.Float64()*9
	}
	covers := make([]uint64, k)
	for i := range covers {
		for e := 0; e < m; e++ {
			if rng.Intn(3) == 0 { // ~16 elements per agent
				covers[i] |= 1 << uint(e)
			}
		}
	}
	agents = make([]int, k)
	for i := range agents {
		agents[i] = i
	}
	cost = func(R []int) float64 {
		var mask uint64
		for _, a := range R {
			mask |= covers[a]
		}
		var c float64
		for mask != 0 {
			c += weights[bits.TrailingZeros64(mask)]
			mask &= mask - 1
		}
		return c
	}
	return agents, cost
}

// E16ParallelShapley runs the blocked flat-table exact enumeration on
// the experiment pool.
func E16ParallelShapley(cfg Config) *stats.Table {
	return e16Run(cfg, true,
		"E16 — exact Shapley, blocked flat-table tier (SharesParallel)")
}

// E16bSerialShapley is the control: the historical memo-map enumeration
// on the identical instance. Its shares agree with E16's to float-sum
// reassociation tolerance (the two fold marginals in different orders).
func E16bSerialShapley(cfg Config) *stats.Table {
	return e16Run(cfg, false,
		"E16b — exact Shapley, memo-map baseline (control for E16)")
}

func e16Run(cfg Config, parallel bool, title string) *stats.Table {
	t := stats.NewTable(title,
		"k", "trials", "C(R)", "sum shares", "balance resid", "max share", "min share")
	k := e16K
	if cfg.Quick {
		k = 12
	}
	trials := cfg.trials(2, 1)
	agents, cost := e16Cost(k)

	var shares map[int]float64
	for trial := 0; trial < trials; trial++ {
		// A fresh method per trial: the memo cache must start cold each
		// time or later trials would time map hits instead of the
		// enumeration.
		if parallel {
			shares = sharing.NewShapley(agents, cost).SharesParallel(agents, cfg.Pool())
		} else {
			shares = memoMapShapley(agents, cost)
		}
	}
	grand := cost(agents)
	var sum float64
	maxSh, minSh := math.Inf(-1), math.Inf(1)
	for _, a := range agents {
		sh := shares[a]
		sum += sh
		maxSh = math.Max(maxSh, sh)
		minSh = math.Min(minSh, sh)
	}
	t.Add(fmt.Sprint(k), fmt.Sprint(trials), stats.F(grand), stats.F(sum),
		stats.F(math.Abs(sum-grand)), stats.F(maxSh), stats.F(minSh))
	t.Note("one weighted-coverage instance (48 elements), fresh method per trial so the 2^k enumeration is what's timed")
	t.Note("budget balance is the correctness check here; cross-tier byte identity is pinned in sharing's parallel tests")
	t.Note("latency is the point: benchtab -timings wall_ms, gated in CI as E16 <= 0.4 * E16b")
	return t
}

// memoMapShapley is the exact Shapley enumeration as the sharing package
// computed it before the blocked fold: subsets walked in local-mask
// order, each cost memoized in a map keyed by its universe mask, every
// marginal looked up there. It evaluates R = agents over the universe
// agents, which must be sorted.
func memoMapShapley(agents []int, cost sharing.CostFunc) map[int]float64 {
	k := len(agents)
	fact := make([]float64, k+2)
	fact[0] = 1
	for i := 1; i < len(fact); i++ {
		fact[i] = fact[i-1] * float64(i)
	}
	cache := map[uint64]float64{}
	costOf := func(mask uint64) float64 {
		if mask == 0 {
			return 0
		}
		if c, ok := cache[mask]; ok {
			return c
		}
		var R []int
		for idx, a := range agents {
			if mask&(1<<uint(idx)) != 0 {
				R = append(R, a)
			}
		}
		c := cost(R)
		cache[mask] = c
		return c
	}
	shares := make(map[int]float64, k)
	kf := fact[k]
	for lm := uint64(0); lm < 1<<uint(k); lm++ {
		qSize := bits.OnesCount64(lm)
		if qSize == k {
			continue
		}
		w := fact[qSize] * fact[k-qSize-1] / kf
		cq := costOf(lm)
		for i := 0; i < k; i++ {
			if lm&(1<<uint(i)) != 0 {
				continue // i ∈ Q
			}
			shares[agents[i]] += w * (costOf(lm|1<<uint(i)) - cq)
		}
	}
	return shares
}
