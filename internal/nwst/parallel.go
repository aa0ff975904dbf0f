package nwst

import (
	"math"
	"sort"
	"sync"

	"wmcs/internal/engine"
	"wmcs/internal/graph"
)

// This file holds the spider oracles (DESIGN.md §14). Both are center
// scans: every live vertex is scored independently against read-only
// state (graph, weights, terminal marks). The center range is cut into
// *fixed* contiguous slices — a function of the vertex count only, never
// of the pool width — each scanned by one task with its own scratch,
// and the slice winners are folded in slice order under the acceptance
// predicate ratio < best − 1e-15 (first winner kept on near-ties).
// KleinRaviOracle and BranchSpiderOracle run that fold on a nil pool,
// the Parallel* constructors on a wider one; since the slicing and the
// fold order are the same at every width, so are the bytes.

// oracleSliceCap bounds the number of center slices: min(n, 32) slices
// keeps the fold trivially cheap while feeding any realistic pool.
const oracleSliceCap = 32

// oracleSlices returns the fixed slice count for an n-vertex scan.
func oracleSlices(n int) int {
	if n < oracleSliceCap {
		return n
	}
	return oracleSliceCap
}

// scratchPool hands each slice task a private scratch. A scratch
// carries no information across uses, so which one serves which slice
// never affects a byte.
var scratchPool = sync.Pool{New: func() any { return &scratch{heap: graph.NewIndexHeap(0)} }}

// forSlices runs fn over the fixed center slices of an n-vertex scan on
// the pool, each with a borrowed scratch sized to n, and returns the
// results in slice order.
func forSlices[T any](pool *engine.Pool, n int, fn func(sc *scratch, lo, hi int) T) []T {
	ns := oracleSlices(n)
	return engine.Map(pool, ns, func(b int) T {
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		sc.grow(n)
		return fn(sc, b*n/ns, (b+1)*n/ns)
	})
}

// sliceResult is one center slice's winner.
type sliceResult struct {
	sp Spider
	ok bool
}

// foldSlices merges slice winners in slice order under the acceptance
// predicate, starting from base.
func foldSlices(base Spider, okBase bool, out []sliceResult) (Spider, bool) {
	best, found := base, okBase
	for _, r := range out {
		if r.ok && r.sp.Ratio < best.Ratio-1e-15 {
			best = r.sp
			found = true
		}
	}
	return best, found
}

// KleinRaviOracle finds a minimum-ratio spider in the style of Klein–Ravi
// [33]: for every live center, take the minCover, minCover+1, … nearest
// paying terminals by node-weighted distance and keep the prefix whose
// exact union cost per covered paying terminal is smallest.
func KleinRaviOracle(s *State, minCover int) (Spider, bool) {
	return kleinRavi(s, minCover, nil)
}

// BranchSpiderOracle extends KleinRaviOracle with Guha–Khuller style
// branch legs: a leg may route to an intermediate hub and fork to two
// terminals there, which is what improves the greedy from 2 ln k towards
// 1.5 ln k. Per center it greedily combines single and forked legs by
// cost per newly covered terminal, keeping the best exact-ratio prefix.
func BranchSpiderOracle(s *State, minCover int) (Spider, bool) {
	return branchSpider(s, minCover, nil)
}

// ParallelKleinRaviOracle returns KleinRaviOracle with its center slices
// scanned by the pool's workers. The returned oracle requires that the
// State not be used concurrently by anything else during a call (the
// mechanism's call discipline already guarantees this).
func ParallelKleinRaviOracle(pool *engine.Pool) Oracle {
	return func(s *State, minCover int) (Spider, bool) {
		return kleinRavi(s, minCover, pool)
	}
}

// ParallelBranchSpiderOracle returns BranchSpiderOracle with its three
// scans — the Klein–Ravi base, the all-pairs distance build and the
// per-center greedy — run by the pool's workers.
func ParallelBranchSpiderOracle(pool *engine.Pool) Oracle {
	return func(s *State, minCover int) (Spider, bool) {
		return branchSpider(s, minCover, pool)
	}
}

func kleinRavi(s *State, minCover int, pool *engine.Pool) (Spider, bool) {
	paying := s.PayingTerminals()
	if len(paying) == 0 {
		return Spider{Ratio: math.Inf(1)}, false
	}
	minCover = min(minCover, len(paying))
	out := forSlices(pool, s.g.N(), func(sc *scratch, lo, hi int) sliceResult {
		sp, ok := krScanCenters(s, lo, hi, paying, minCover, sc)
		return sliceResult{sp, ok}
	})
	return foldSlices(Spider{Ratio: math.Inf(1)}, false, out)
}

// krScanCenters runs the Klein–Ravi center loop over [lo, hi).
func krScanCenters(s *State, lo, hi int, paying []int, minCover int, sc *scratch) (Spider, bool) {
	best := Spider{Ratio: math.Inf(1)}
	found := false
	for v := lo; v < hi; v++ {
		if !s.alive[v] {
			continue
		}
		dist, parent := sc.dist, sc.par
		// Settle only as far as the last paying terminal: nothing past it
		// is read (see nodeDist).
		s.nodeDist(sc, v, dist, parent, len(paying))
		// Paying terminals sorted by distance from v. The comparator is a
		// total order (ties broken by id), so the sorted sequence — and
		// with it every downstream byte — does not depend on the sort
		// algorithm. sort.Sort on the pointer sorter avoids the per-call
		// closure and reflect.Swapper allocations of sort.Slice.
		terms := append(sc.sortBuf[:0], paying...)
		sc.sortBuf = terms
		sc.sorter = termDistSorter{terms: terms, dist: dist}
		sort.Sort(&sc.sorter)
		if math.IsInf(dist[terms[minCover-1]], 1) {
			continue
		}
		// Incremental prefix union: leg j extends the union of legs
		// 1..j−1 in place. Nodes are appended center first, then each
		// leg's path nodes, skipping ones already present, and
		// cost/terms accumulate at append time — the same strictly
		// left-to-right float summation finishSpider performs on a
		// rebuilt union.
		inUnion := sc.spiderBufs()
		nodes := append(sc.nodesBuf, v)
		inUnion[v] = true
		unionTerms := sc.termsBuf[:0]
		var cost float64
		payCnt := 0
		admit := func(x int) {
			cost += s.w[x]
			if s.isTerm[x] {
				unionTerms = append(unionTerms, x)
				if !s.free[x] {
					payCnt++
				}
			}
		}
		admit(v)
		for j := 1; j <= len(terms); j++ {
			if math.IsInf(dist[terms[j-1]], 1) {
				break
			}
			sc.pathBuf = appendPath(parent, terms[j-1], sc.pathBuf[:0])
			for _, x := range sc.pathBuf {
				if !inUnion[x] {
					inUnion[x] = true
					nodes = append(nodes, x)
					admit(x)
				}
			}
			if j < minCover {
				continue
			}
			ratio := math.Inf(1)
			if payCnt > 0 {
				ratio = cost / float64(payCnt)
			}
			if payCnt >= minCover && ratio < best.Ratio-1e-15 {
				best = sc.keep(Spider{Center: v, Nodes: nodes, Terms: unionTerms, Paying: payCnt, Cost: cost, Ratio: ratio})
				found = true
			}
		}
		for _, x := range nodes {
			inUnion[x] = false
		}
		sc.nodesBuf = nodes
		sc.termsBuf = unionTerms
	}
	return sc.own(best), found
}

func branchSpider(s *State, minCover int, pool *engine.Pool) (Spider, bool) {
	base, okBase := kleinRavi(s, minCover, pool)
	n := s.g.N()
	paying := s.PayingTerminals()
	if len(paying) == 0 {
		return base, okBase
	}
	minCover = min(minCover, len(paying))
	// All-pairs node distances from every live vertex (hubs and centers).
	// The rows live in the state's scratch, grown here; slice tasks write
	// disjoint rows.
	dists, parents := s.sc.allPairs(n)
	forSlices(pool, n, func(sc *scratch, lo, hi int) struct{} {
		for v := lo; v < hi; v++ {
			if s.alive[v] {
				s.nodeDist(sc, v, dists[v], parents[v], -1)
			}
		}
		return struct{}{}
	})
	out := forSlices(pool, n, func(sc *scratch, lo, hi int) sliceResult {
		sp, ok := branchScanCenters(s, lo, hi, paying, minCover, dists, parents, sc)
		return sliceResult{sp, ok}
	})
	return foldSlices(base, okBase, out)
}

// branchScanCenters runs the branch-leg greedy over centers [lo, hi),
// reading the shared all-pairs tables.
func branchScanCenters(s *State, lo, hi int, paying []int, minCover int, dists [][]float64, parents [][]int, sc *scratch) (Spider, bool) {
	best := Spider{Ratio: math.Inf(1)}
	found := false
	covered := sc.covered
	n := s.g.N()
	for v := lo; v < hi; v++ {
		if !s.alive[v] {
			continue
		}
		items := sc.items[:0]
		for _, t := range paying {
			if !math.IsInf(dists[v][t], 1) {
				items = append(items, legItem{cost: dists[v][t], hub: -1, t1: t, t2: -1})
			}
		}
		for u := 0; u < n; u++ {
			if !s.alive[u] || u == v || math.IsInf(dists[v][u], 1) {
				continue
			}
			// Two nearest paying terminals from hub u.
			t1, t2 := -1, -1
			for _, t := range paying {
				if math.IsInf(dists[u][t], 1) {
					continue
				}
				if t1 < 0 || dists[u][t] < dists[u][t1] {
					t1, t2 = t, t1
				} else if t2 < 0 || dists[u][t] < dists[u][t2] {
					t2 = t
				}
			}
			if t1 < 0 || t2 < 0 {
				continue
			}
			items = append(items, legItem{
				cost: dists[v][u] + dists[u][t1] + dists[u][t2],
				hub:  u,
				t1:   t1,
				t2:   t2,
			})
		}
		sc.items = items
		// Greedy by cost per newly covered terminal.
		for _, t := range paying {
			covered[t] = false
		}
		nCovered := 0
		legEnds := sc.legEnds[:0]
		hubLegs := sc.hubLegs[:0]
		for nCovered < len(paying) {
			bi, bc := -1, math.Inf(1)
			for i, it := range items {
				nu := 0
				if !covered[it.t1] {
					nu++
				}
				if it.t2 >= 0 && !covered[it.t2] {
					nu++
				}
				if nu == 0 {
					continue
				}
				if per := it.cost / float64(nu); per < bc {
					bi, bc = i, per
				}
			}
			if bi < 0 {
				break
			}
			it := items[bi]
			if !covered[it.t1] {
				covered[it.t1] = true
				nCovered++
			}
			if it.t2 >= 0 && !covered[it.t2] {
				covered[it.t2] = true
				nCovered++
			}
			if it.hub < 0 {
				legEnds = append(legEnds, it.t1)
			} else {
				hubLegs = append(hubLegs, it)
			}
			if nCovered >= minCover {
				sp := sc.assembleBranchSpider(s, v, parents, legEnds, hubLegs)
				if sp.Paying >= minCover && sp.Ratio < best.Ratio-1e-15 {
					best = sc.keep(sp)
					found = true
				}
			}
		}
		sc.legEnds = legEnds
		sc.hubLegs = hubLegs
	}
	return sc.own(best), found
}

// keep copies a slice's running best into the scratch's best buffers,
// so improving candidates cost no allocation; own hands the slice
// winner out as a sorted, independently owned Spider.
func (sc *scratch) keep(sp Spider) Spider {
	sc.bestNodes = append(sc.bestNodes[:0], sp.Nodes...)
	sc.bestTerms = append(sc.bestTerms[:0], sp.Terms...)
	sp.Nodes, sp.Terms = sc.bestNodes, sc.bestTerms
	return sp
}

func (sc *scratch) own(sp Spider) Spider {
	sp = sp.Clone()
	sort.Ints(sp.Nodes)
	sort.Ints(sp.Terms)
	return sp
}

// spiderBufs returns the cleared membership mask with empty node/terminal
// accumulators.
func (sc *scratch) spiderBufs() []bool {
	sc.nodesBuf = sc.nodesBuf[:0]
	sc.termsBuf = sc.termsBuf[:0]
	return sc.inUnion
}

// assembleBranchSpider unions the center's single legs with hub-forked
// legs and computes exact cost, terminals and ratio. The result aliases
// the scratch; Clone to keep it.
func (sc *scratch) assembleBranchSpider(s *State, center int, parents [][]int, singleEnds []int, hubLegs []legItem) Spider {
	inUnion := sc.spiderBufs()
	nodes := append(sc.nodesBuf, center)
	inUnion[center] = true
	add := func(parent []int, end int) {
		sc.pathBuf = appendPath(parent, end, sc.pathBuf[:0])
		for _, v := range sc.pathBuf {
			if !inUnion[v] {
				inUnion[v] = true
				nodes = append(nodes, v)
			}
		}
	}
	for _, e := range singleEnds {
		add(parents[center], e)
	}
	for _, hl := range hubLegs {
		add(parents[center], hl.hub)
		add(parents[hl.hub], hl.t1)
		add(parents[hl.hub], hl.t2)
	}
	sp := sc.finishSpider(s, center, nodes)
	for _, v := range sp.Nodes {
		inUnion[v] = false
	}
	return sp
}

// finishSpider computes cost/terms/ratio over the accumulated node union
// (cost summed in insertion order) and sorts the scratch-backed slices.
func (sc *scratch) finishSpider(s *State, center int, nodes []int) Spider {
	var cost float64
	terms := sc.termsBuf[:0]
	paying := 0
	for _, v := range nodes {
		cost += s.w[v]
		if s.isTerm[v] {
			terms = append(terms, v)
			if !s.free[v] {
				paying++
			}
		}
	}
	sort.Ints(nodes)
	sort.Ints(terms)
	sc.nodesBuf = nodes
	sc.termsBuf = terms
	ratio := math.Inf(1)
	if paying > 0 {
		ratio = cost / float64(paying)
	}
	return Spider{Center: center, Nodes: nodes, Terms: terms, Paying: paying, Cost: cost, Ratio: ratio}
}
