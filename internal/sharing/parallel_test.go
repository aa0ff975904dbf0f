package sharing

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"wmcs/internal/engine"
	"wmcs/internal/mech"
)

// randSubmodularCost builds a deterministic non-decreasing submodular
// oracle: a coverage function over weighted ground elements.
func randSubmodularCost(n, ground int, seed int64) CostFunc {
	rng := rand.New(rand.NewSource(seed))
	covers := make([][]int, n)
	for i := range covers {
		m := 1 + rng.Intn(4)
		for j := 0; j < m; j++ {
			covers[i] = append(covers[i], rng.Intn(ground))
		}
	}
	wgt := make([]float64, ground)
	for i := range wgt {
		wgt[i] = 0.5 + rng.Float64()
	}
	return func(R []int) float64 {
		seen := make(map[int]bool)
		tot := 0.0
		for _, a := range R {
			for _, g := range covers[a] {
				if !seen[g] {
					seen[g] = true
					tot += wgt[g]
				}
			}
		}
		return tot
	}
}

func agentsUpto(n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	return a
}

// TestSharesParallelWidthInvariant is the core determinism contract:
// the blocked reduction produces bit-identical shares at width 1 and at
// every wider pool.
func TestSharesParallelWidthInvariant(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 7, 10, 13} {
		agents := agentsUpto(k)
		cost := randSubmodularCost(k, 3*k, int64(1000+k))
		want := NewShapley(agents, cost).SharesParallel(agents, engine.Serial())
		for _, width := range []int{2, 3, 4, 8, 16} {
			got := NewShapley(agents, cost).SharesParallel(agents, engine.New(width))
			if len(got) != len(want) {
				t.Fatalf("k=%d width=%d: %d shares, want %d", k, width, len(got), len(want))
			}
			for a, v := range want {
				if got[a] != v {
					t.Fatalf("k=%d width=%d agent %d: %v != %v (bitwise)", k, width, a, got[a], v)
				}
			}
		}
	}
}

// TestSharesParallelMatchesSerial pins Shares, the nil-pool call, to the
// same blocked reduction on a wider pool, bit for bit.
func TestSharesParallelMatchesSerial(t *testing.T) {
	for _, k := range []int{1, 2, 4, 6, 9, 12} {
		agents := agentsUpto(k)
		cost := randSubmodularCost(k, 2*k+1, int64(77+k))
		serial := NewShapley(agents, cost).Shares(agents)
		par := NewShapley(agents, cost).SharesParallel(agents, engine.New(4))
		for a, v := range serial {
			if math.Float64bits(par[a]) != math.Float64bits(v) {
				t.Fatalf("k=%d agent %d: parallel %v vs serial %v", k, a, par[a], v)
			}
		}
	}
}

// TestSharesParallelSubsetAndMemo exercises R ⊂ universe and verifies
// the cost table is folded back into the cross-call memo: a second call
// on a shrunken set must issue no fresh oracle calls.
func TestSharesParallelSubsetAndMemo(t *testing.T) {
	agents := agentsUpto(8)
	var calls atomic.Int64 // the oracle runs on the pool's workers
	base := randSubmodularCost(8, 12, 5)
	counting := func(R []int) float64 { calls.Add(1); return base(R) }
	s := NewShapley(agents, counting)
	pool := engine.New(4)
	R := []int{1, 2, 4, 5, 7}
	first := s.SharesParallel(R, pool)
	callsAfterFirst := calls.Load()
	if callsAfterFirst == 0 {
		t.Fatal("no oracle calls on a cold memo")
	}
	second := s.SharesParallel(R[:4], pool)
	if n := calls.Load(); n != callsAfterFirst {
		t.Fatalf("shrunken re-query issued %d fresh oracle calls, want 0", n-callsAfterFirst)
	}
	if len(first) != 5 || len(second) != 4 {
		t.Fatalf("share counts %d/%d, want 5/4", len(first), len(second))
	}
	// And the warm-memo subset result matches a cold serial evaluation
	// bit for bit.
	want := NewShapley(agents, base).Shares(R[:4])
	for a, v := range want {
		if math.Float64bits(second[a]) != math.Float64bits(v) {
			t.Fatalf("agent %d: %v vs serial %v", a, second[a], v)
		}
	}
}

// TestSampledParallelWidthInvariant: the stream-sharded estimator is
// bitwise width-invariant, certificates included.
func TestSampledParallelWidthInvariant(t *testing.T) {
	agents := agentsUpto(9)
	cost := randSubmodularCost(9, 20, 42)
	mk := func() *SampledShapley {
		s, err := NewSampledShapley(agents, cost, 37, 0.05, 11)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	wantShares, wantCert := mk().SharesCertParallel(agents, engine.Serial())
	for _, width := range []int{2, 4, 8, 16} {
		got, cert := mk().SharesCertParallel(agents, engine.New(width))
		if cert != wantCert {
			t.Fatalf("width %d: cert %+v != %+v", width, cert, wantCert)
		}
		for a, v := range wantShares {
			if got[a] != v {
				t.Fatalf("width %d agent %d: %v != %v (bitwise)", width, a, got[a], v)
			}
		}
	}
}

// TestSampledParallelCertMatchesSerialTier: SharesCert, the nil-pool
// call, equals the stream fold on a wider pool, shares and certificate
// alike.
func TestSampledParallelCertMatchesSerialTier(t *testing.T) {
	agents := agentsUpto(7)
	cost := randSubmodularCost(7, 15, 3)
	s1, _ := NewSampledShapley(agents, cost, 25, 0.1, 9)
	s2, _ := NewSampledShapley(agents, cost, 25, 0.1, 9)
	serialShares, serialCert := s1.SharesCert(agents)
	parShares, parCert := s2.SharesCertParallel(agents, engine.New(4))
	if serialCert != parCert {
		t.Fatalf("parallel cert %+v != serial cert %+v", parCert, serialCert)
	}
	for a, v := range serialShares {
		if math.Float64bits(parShares[a]) != math.Float64bits(v) {
			t.Fatalf("agent %d: parallel %v vs serial %v", a, parShares[a], v)
		}
	}
}

// TestSampledParallelEstimateQuality: the sharded estimator still
// converges to the exact values (it is the same estimator over a
// different fixed sample of permutations).
func TestSampledParallelEstimateQuality(t *testing.T) {
	agents := agentsUpto(6)
	cost := randSubmodularCost(6, 10, 8)
	exact := NewShapley(agents, cost).Shares(agents)
	s, _ := NewSampledShapley(agents, cost, 4000, 0.05, 13)
	approx, cert := s.SharesCertParallel(agents, engine.New(4))
	for a, v := range exact {
		if d := math.Abs(approx[a] - v); d > cert.Epsilon {
			t.Fatalf("agent %d: |%v-%v| = %g exceeds ε=%g", a, approx[a], v, d, cert.Epsilon)
		}
	}
}

// TestSampledParallelCounters: on a wide pool Queries/Hits fold
// deterministically and the fresh costs land in the shared memo (a
// replay is all hits).
func TestSampledParallelCounters(t *testing.T) {
	agents := agentsUpto(6)
	cost := randSubmodularCost(6, 10, 21)
	s, _ := NewSampledShapley(agents, cost, 16, 0.1, 2)
	pool := engine.New(4)
	s.SharesCertParallel(agents, pool)
	q1 := s.Queries
	if q1 == 0 {
		t.Fatal("no oracle queries recorded")
	}
	s.SharesCertParallel(agents, pool)
	if s.Queries != q1 {
		t.Fatalf("replay issued %d fresh queries, want 0", s.Queries-q1)
	}
	// Determinism of the counters themselves across identical instances.
	s2, _ := NewSampledShapley(agents, cost, 16, 0.1, 2)
	s2.SharesCertParallel(agents, engine.New(2))
	if s2.Queries != q1 {
		t.Fatalf("query count %d differs across widths (want %d)", s2.Queries, q1)
	}
}

// TestMechanismFromMethodParallelTier: with a Pool the mechanism's exact
// and sampled outcomes are width-stable.
func TestMechanismFromMethodParallelTier(t *testing.T) {
	agents := agentsUpto(8)
	cost := randSubmodularCost(8, 14, 31)
	u := make(mech.Profile, len(agents))
	rng := rand.New(rand.NewSource(4))
	for _, a := range agents {
		u[a] = rng.Float64() * 3
	}
	run := func(width int) mech.Outcome {
		m := &MechanismFromMethod{
			MechName: "par", AgentSet: agents,
			Xi: NewShapley(agents, cost), Cost: cost,
			Pool: engine.New(width),
		}
		return m.Run(u)
	}
	base := run(1)
	for _, width := range []int{2, 4, 8} {
		got := run(width)
		if len(got.Receivers) != len(base.Receivers) || got.Cost != base.Cost {
			t.Fatalf("width %d outcome drifted: %+v vs %+v", width, got, base)
		}
		for i, r := range base.Receivers {
			if got.Receivers[i] != r {
				t.Fatalf("width %d receivers %v vs %v", width, got.Receivers, base.Receivers)
			}
		}
		for a, v := range base.Shares {
			if got.Shares[a] != v {
				t.Fatalf("width %d share[%d] %v != %v", width, a, got.Shares[a], v)
			}
		}
	}
	// Approx tier through the mechanism wrapper, width-stable with cert.
	runA := func(width int) (mech.Outcome, mech.ApproxCert) {
		m := &MechanismFromMethod{
			MechName: "par", AgentSet: agents,
			Xi: NewShapley(agents, cost), Cost: cost,
			Pool: engine.New(width),
		}
		out, cert, err := m.RunApprox(u, mech.ApproxSpec{Samples: 33, Delta: 0.1, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return out, cert
	}
	aBase, cBase := runA(1)
	for _, width := range []int{2, 8} {
		got, cert := runA(width)
		if cert != cBase {
			t.Fatalf("width %d approx cert %+v != %+v", width, cert, cBase)
		}
		for a, v := range aBase.Shares {
			if got.Shares[a] != v {
				t.Fatalf("width %d approx share[%d] %v != %v", width, a, got.Shares[a], v)
			}
		}
	}
}
