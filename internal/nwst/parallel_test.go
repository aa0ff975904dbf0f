package nwst

import (
	"math/rand"
	"testing"

	"wmcs/internal/engine"
)

// spidersEqual compares every exported field bitwise.
func spidersEqual(a, b Spider) bool {
	if a.Center != b.Center || a.Paying != b.Paying || a.Cost != b.Cost || a.Ratio != b.Ratio {
		return false
	}
	if len(a.Nodes) != len(b.Nodes) || len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	for i := range a.Terms {
		if a.Terms[i] != b.Terms[i] {
			return false
		}
	}
	return true
}

// TestParallelOraclesMatchSerial pins the oracles on a pool to the
// nil-pool ones spider-for-spider across random instances and minCover
// values: the slicing and fold order do not depend on the width.
func TestParallelOraclesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := engine.New(4)
	pkr := ParallelKleinRaviOracle(pool)
	pbs := ParallelBranchSpiderOracle(pool)
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(20)
		k := 2 + rng.Intn(n/2)
		in := randomInstance(rng, n, k)
		for _, minCover := range []int{1, 2, 3} {
			if minCover > k {
				continue
			}
			sSer := NewState(in)
			wantKR, okSer := KleinRaviOracle(sSer, minCover)
			sPar := NewState(in)
			gotKR, okPar := pkr(sPar, minCover)
			if okSer != okPar || (okSer && !spidersEqual(wantKR, gotKR)) {
				t.Fatalf("trial %d minCover %d: KR parallel %+v (%v) != serial %+v (%v)",
					trial, minCover, gotKR, okPar, wantKR, okSer)
			}
			sSer2 := NewState(in)
			wantBS, okSer2 := BranchSpiderOracle(sSer2, minCover)
			sPar2 := NewState(in)
			gotBS, okPar2 := pbs(sPar2, minCover)
			if okSer2 != okPar2 || (okSer2 && !spidersEqual(wantBS, gotBS)) {
				t.Fatalf("trial %d minCover %d: BS parallel %+v (%v) != serial %+v (%v)",
					trial, minCover, gotBS, okPar2, wantBS, okSer2)
			}
		}
	}
}

// TestParallelOracleWidthInvariant: the oracles produce the same spider
// at width 1 and every wider pool (the fixed-slice contract), including
// through a full greedy Solve.
func TestParallelOracleWidthInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(24)
		k := 3 + rng.Intn(n/3)
		in := randomInstance(rng, n, k)
		base, okBase := Solve(in, ParallelBranchSpiderOracle(engine.Serial()))
		for _, width := range []int{2, 4, 8} {
			got, ok := Solve(in, ParallelBranchSpiderOracle(engine.New(width)))
			if ok != okBase {
				t.Fatalf("trial %d width %d: ok %v != %v", trial, width, ok, okBase)
			}
			if !ok {
				continue
			}
			if got.Cost != base.Cost || len(got.Nodes) != len(base.Nodes) {
				t.Fatalf("trial %d width %d: cost %v nodes %d != cost %v nodes %d",
					trial, width, got.Cost, len(got.Nodes), base.Cost, len(base.Nodes))
			}
			for i := range base.Nodes {
				if got.Nodes[i] != base.Nodes[i] {
					t.Fatalf("trial %d width %d: nodes %v != %v", trial, width, got.Nodes, base.Nodes)
				}
			}
		}
	}
}

// TestParallelSolveMatchesSerialSolve: end-to-end greedy equality —
// same contractions, same final solution — between the nil-pool and
// pooled oracles.
func TestParallelSolveMatchesSerialSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pool := engine.New(4)
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(20)
		k := 2 + rng.Intn(n/3)
		in := randomInstance(rng, n, k)
		want, okW := Solve(in, BranchSpiderOracle)
		got, okG := Solve(in, ParallelBranchSpiderOracle(pool))
		if okW != okG {
			t.Fatalf("trial %d: ok %v != %v", trial, okG, okW)
		}
		if !okW {
			continue
		}
		if got.Cost != want.Cost {
			t.Fatalf("trial %d: parallel cost %v != serial %v", trial, got.Cost, want.Cost)
		}
		for i := range want.Nodes {
			if got.Nodes[i] != want.Nodes[i] {
				t.Fatalf("trial %d: nodes %v != %v", trial, got.Nodes, want.Nodes)
			}
		}
	}
}
