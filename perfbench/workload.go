package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"wmcs/internal/engine"
	"wmcs/internal/instances"
	"wmcs/internal/mech"
	"wmcs/internal/mechreg"
	"wmcs/internal/serve"
	"wmcs/internal/wireless"
)

// The workloads read the four wmcsd demo networks. Two more networks
// serve single purposes:
var (
	// symSpec adds an abstract symmetric network to the churn mix: the
	// demo networks are Euclidean and drift by mobility, which always
	// rebuilds in full, while battery drain here can rebuild incrementally.
	symSpec = instances.Spec{Name: "sym12", Scenario: "symmetric", N: 12, Seed: 6}
	// probeSpec takes the PATCHes of the mixes whose reads must not see
	// writes: nothing reads it, so its updates invalidate no cached
	// answer, while their round trips are timed under the mix's load.
	probeSpec = instances.Spec{Name: "probe12", Scenario: "uniform", N: 12, Alpha: 2, Seed: 7}
)

// uniformMechs is the list uniform's hash pin draws from: each light
// mechanism three times and wireless-bb once, so a tenth of the queries
// are wireless-bb. With an even four-way pin a quarter are, and about
// as many light queries again wait behind them on the single dispatcher,
// which put the median of all queries on the edge between the fast and
// the queued mode.
var uniformMechs = []string{
	mechreg.UniversalShapley, mechreg.UniversalMC, mechreg.JVMoat,
	mechreg.UniversalShapley, mechreg.UniversalMC, mechreg.JVMoat,
	mechreg.UniversalShapley, mechreg.UniversalMC, mechreg.JVMoat,
	mechreg.WirelessBB,
}

func isLight(m string) bool { return m != mechreg.WirelessBB }

// workload describes one traffic mix, run as a closed loop of nproc
// clients: its networks and how its operation stream is drawn.
type workload struct {
	name string
	// specs are the networks the daemon hosts. The first `reads` take
	// the mix's uniform or hot-pool reads; a probe mix ends with probeSpec.
	specs []instances.Spec
	reads int
	// hot marks the Zipf hot-pool mixes, whose pool is warmed in set-up.
	hot bool
	// patchEvery > 0 puts one PATCH after every patchEvery other
	// operations: round-robin over every network, or to probeSpec alone
	// when probe is set.
	patchEvery int
	probe      bool
	// replayOps is the fixed length of the in-process traced replay.
	replayOps int
	// tails are the percentiles of the mix's tail metrics.
	tails tailPcts
}

// tailPcts fixes the percentile each tail metric reports: the one the
// tail rule picks at the benchmark's run length (20 s) on a 2-core host,
// checked against every run of the 10-seed sweeps. Fixed, a tail stays
// the same percentile when a change makes a mix faster or slower and so
// moves its sample count across one of the rule's thresholds; each run
// still prints the rule's own pick beside the value.
type tailPcts struct{ all, light, bb, patch int }

const (
	hotPool  = 32  // hot-set pool size per network
	zipfS    = 1.2 // Zipf exponent over the pool
	umax     = 50  // utilities are uniform in [0, umax)
	poolBase = 9000
	drawBase = 7000
	warmBase = 6000
	moveBase = 5000
	// warmSeed seeds the per-network × mechanism warm-up queries. It is
	// fixed, not the run's seed, so the set-up work is the same on every
	// seed and setup_s varies only with the hot pool.
	warmSeed = 0
)

func withSpecs(extra ...instances.Spec) []instances.Spec {
	return append(serve.DefaultSpecs(), extra...)
}

var workloads = []*workload{
	{
		// Every query is fresh, so the cache never hits and compute
		// (mostly wireless-bb, a tenth of the queries) behind the single
		// dispatcher does the work.
		name:       "uniform",
		specs:      withSpecs(probeSpec),
		reads:      4,
		patchEvery: 10,
		probe:      true,
		replayOps:  240,
		// ~7000 reads, 700 of them wireless-bb, and 700 PATCHes a run.
		tails: tailPcts{all: 99, light: 99, bb: 90, patch: 90},
	},
	{
		// A warmed Zipf pool: the HTTP, codec and cache-hit path does the
		// work and compute almost none.
		name:       "hotset",
		specs:      withSpecs(probeSpec),
		reads:      4,
		hot:        true,
		patchEvery: 100,
		probe:      true,
		replayOps:  20000,
		// ~250000 reads and 2500 PATCHes a run.
		tails: tailPcts{all: 99, light: 99, bb: 99, patch: 99},
	},
	{
		// Hot-pool reads with writes beside them: every PATCH bumps a
		// version, rebuilds, purges and carries forward, and turns later
		// hits into misses.
		name:       "churn",
		specs:      withSpecs(symSpec),
		reads:      5,
		hot:        true,
		patchEvery: 50,
		replayOps:  1200,
		// ~7500 reads, 1700 of them wireless-bb, and 150 PATCHes a run.
		tails: tailPcts{all: 99, light: 99, bb: 99, patch: 90},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// opKind tells reads from writes.
type opKind uint8

const (
	opRead opKind = iota
	opPatch
)

// op is one operation of a workload's stream, ready to send: the wire
// body plus what verification needs (the canonical request, or the
// update and its per-network sequence number).
type op struct {
	kind  opKind
	net   int
	mech  string
	req   serve.EvalRequest
	canon serve.CanonRequest
	body  []byte
	// update and patchSeq describe a PATCH: the delta, and its position
	// in the network's update sequence (PATCHes to one network must reach
	// the daemon in order).
	update   instances.Update
	patchSeq int
}

// buildNets builds the workload's networks from their specs.
func buildNets(specs []instances.Spec) ([]*wireless.Network, error) {
	nets := make([]*wireless.Network, len(specs))
	for i, sp := range specs {
		nw, err := sp.Build()
		if err != nil {
			return nil, err
		}
		nets[i] = nw
	}
	return nets, nil
}

// pinHash hashes a query's identity (receiver set, then utility bits),
// the same rule wmcsload uses to pin queries to mechanisms: repeats of a
// query always land on the same mechanism and stay cacheable.
func pinHash(R []int, u mech.Profile) int {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range R {
		binary.LittleEndian.PutUint64(buf[:], uint64(r))
		h.Write(buf[:])
	}
	for _, v := range u {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return int(h.Sum64() % math.MaxInt32)
}

// readOp builds a read of query q against network j, pinned within mechs.
func readOp(spec instances.Spec, nw *wireless.Network, j int, q instances.Query, mechs []string) op {
	m := mechs[pinHash(q.R, q.U)%len(mechs)]
	req := serve.EvalRequest{Network: spec.Name, Mech: m, R: q.R, Profile: q.U}
	c, err := serve.Canonicalize(req, nw.N(), nw.Source())
	if err != nil {
		panic(fmt.Sprintf("generated request does not canonicalize: %v", err))
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return op{kind: opRead, net: j, mech: m, req: req, canon: c, body: body}
}

// stream is a workload's deterministic operation sequence for one seed.
// It is not safe for concurrent use; the load generator hands its ops out
// under a lock, so the sequence never depends on scheduling.
type stream struct {
	w       *workload
	nets    []*wireless.Network
	seed    int64
	general []string
	n       int // operations drawn so far
	reads   int

	fresh    []instances.Sampler // per read network, fresh uniform queries
	pools    [][]op              // per read network, the hot pool as ready ops
	zipf     []*rand.Zipf
	churners []instances.Churner
	patches  int
	patchSeq []int
}

func newStream(w *workload, nets []*wireless.Network, seed int64) *stream {
	s := &stream{w: w, nets: nets, seed: seed, general: mechreg.GeneralNames(), patchSeq: make([]int, len(nets))}
	uni, err := instances.WorkloadByName("uniform")
	if err != nil {
		panic(err)
	}
	for j, nw := range nets {
		s.churners = append(s.churners, instances.ChurnModelFor(nw).New(engine.RNG(seed, moveBase+j), nw, instances.ChurnOptions{}))
		switch {
		case j >= w.reads:
		case w.hot:
			pool := uni.New(engine.RNG(seed, poolBase+j), nw, instances.WorkloadOptions{UMax: umax})
			// Pool ranks take the mechanisms in rotation (shifted per
			// network), so every seed's hottest queries have the same mix
			// of cheap and wireless-bb evaluations.
			ops := make([]op, hotPool)
			for k := range ops {
				ops[k] = readOp(w.specs[j], nw, j, pool.Next(), s.general[(k+j)%len(s.general):][:1])
			}
			s.pools = append(s.pools, ops)
			s.zipf = append(s.zipf, rand.NewZipf(engine.RNG(seed, drawBase+j), zipfS, 1, hotPool-1))
		default:
			s.fresh = append(s.fresh, uni.New(engine.RNG(seed, drawBase+j), nw, instances.WorkloadOptions{UMax: umax}))
		}
	}
	return s
}

// next draws the stream's next operation.
func (s *stream) next() op {
	i := s.n
	s.n++
	w := s.w
	if w.patchEvery > 0 && (i+1)%(w.patchEvery+1) == 0 {
		return s.nextPatch()
	}
	j := s.reads % w.reads
	s.reads++
	if w.hot {
		return s.pools[j][s.zipf[j].Uint64()]
	}
	return readOp(w.specs[j], s.nets[j], j, s.fresh[j].Next(), uniformMechs)
}

// nextPatch draws the next update: for the probe network, or round-robin
// over every network.
func (s *stream) nextPatch() op {
	j := len(s.nets) - 1
	if !s.w.probe {
		j = s.patches % len(s.nets)
	}
	s.patches++
	up := s.churners[j].Next()
	body, err := json.Marshal(up)
	if err != nil {
		panic(err)
	}
	o := op{kind: opPatch, net: j, update: up, body: body, patchSeq: s.patchSeq[j]}
	s.patchSeq[j]++
	return o
}

// warmOps are the set-up queries: one per network × general mechanism,
// the same on every seed and drawn from their own rng so they never
// collide with the timed stream, then (on the hot mixes) one pass over
// every pool entry.
func (s *stream) warmOps() []op {
	uni, _ := instances.WorkloadByName("uniform")
	var ops []op
	for j, nw := range s.nets {
		smp := uni.New(engine.RNG(warmSeed, warmBase+j), nw, instances.WorkloadOptions{UMax: umax})
		for _, m := range s.general {
			ops = append(ops, readOp(s.w.specs[j], nw, j, smp.Next(), []string{m}))
		}
	}
	for _, pool := range s.pools {
		ops = append(ops, pool...)
	}
	return ops
}
