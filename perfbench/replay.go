package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wmcs/internal/instances"
	"wmcs/internal/jv"
	"wmcs/internal/mech"
	"wmcs/internal/mechreg"
	"wmcs/internal/memtred"
	"wmcs/internal/nwst"
	"wmcs/internal/query"
	"wmcs/internal/serve"
	"wmcs/internal/sharing"
	"wmcs/internal/universal"
	"wmcs/internal/wireless"
)

// The traced replay runs a workload's stream in one thread, in process,
// through the layers' public functions — serve's codec and cache, the
// query engine, the spider oracle, Moulin–Shenker — and records a span
// around each call. Spans are kept in memory and written when the run
// ends. The replay never reads a clock into anything it computes, so
// its work counts repeat exactly for a seed.

// span is one recorded call. Parent is -1 for a request's root span;
// every span of one operation carries the operation's index as Req.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records nested spans on one goroutine. A nil tracer records
// nothing, which is how the untraced replay runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
	req   int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes sums, per layer, each span's duration minus the time its
// child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.layer()] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// workCounts are the replay's deterministic counts: for one seed and
// workload they repeat exactly, traced or not.
type workCounts struct {
	Reads       int            `json:"reads"`
	Patches     int            `json:"patches"`
	CacheHits   int            `json:"cache_hits"`
	Evaluations map[string]int `json:"evaluations"`
	OracleCalls int            `json:"oracle_calls"`
	MSReplays   int            `json:"ms_replays"`
	MSRounds    int            `json:"ms_rounds"`
	Incremental int            `json:"incremental_updates"`
}

// replayer holds one replay's state: a versioned evaluator per network
// (with a counting, tracing spider oracle), a result cache, and the
// HTTP run's responses to compare against.
type replayer struct {
	specs  []instances.Spec
	ves    []*query.VersionedEvaluator
	cache  *serve.Cache
	tr     *tracer
	counts workCounts
	spts   map[*wireless.Network]*universal.Tree
	// http maps seenKey → the daemon's response, when there is a run to
	// compare with.
	http map[string]*seenEntry
	// checks counts every comparison made — replayed bytes against the
	// daemon's, Moulin–Shenker against the query engine — and compared
	// the byte comparisons alone; mismatches counts the failed ones.
	checks     int
	compared   int
	mismatches int
	firstErr   string
}

func newReplayer(specs []instances.Spec, nets []*wireless.Network, tr *tracer, http map[string]*seenEntry) *replayer {
	r := &replayer{
		specs: specs,
		cache: serve.NewCache(serve.DefaultCacheCapacity, 0),
		tr:    tr,
		spts:  map[*wireless.Network]*universal.Tree{},
		http:  http,
	}
	r.counts.Evaluations = map[string]int{}
	for _, nw := range nets {
		r.ves = append(r.ves, query.NewVersioned(nw, query.WithOracle(r.oracle)))
	}
	return r
}

// oracle is the default spider oracle, counted and traced.
func (r *replayer) oracle(s *nwst.State, minCover int) (nwst.Spider, bool) {
	r.counts.OracleCalls++
	id := r.tr.begin("nwst.oracle")
	sp, ok := nwst.BranchSpiderOracle(s, minCover)
	r.tr.end(id)
	return sp, ok
}

func (r *replayer) mismatch(format string, args ...any) {
	r.mismatches++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

func cachePrefix(name string, ver uint64) string {
	return name + "\x1f" + strconv.FormatUint(ver, 10) + "\x1f"
}

func (r *replayer) run(o op) {
	if o.kind == opPatch {
		r.patch(o)
	} else {
		r.read(o)
	}
}

func (r *replayer) read(o op) {
	r.counts.Reads++
	root := r.tr.begin("replay.read")
	nw := r.ves[o.net].Network()
	id := r.tr.begin("serve.canonicalize")
	c, err := serve.Canonicalize(o.req, nw.N(), nw.Source())
	r.tr.end(id)
	if err != nil {
		r.tr.end(root)
		r.mismatch("canonicalize %s: %v", o.mech, err)
		return
	}
	cur := r.ves[o.net].Current()
	key := cachePrefix(r.specs[o.net].Name, cur.Version) + c.Key
	id = r.tr.begin("serve.cache_get")
	body, hit := r.cache.Get(key)
	r.tr.end(id)
	var out mech.Outcome
	if hit {
		r.counts.CacheHits++
	} else {
		id = r.tr.begin("query.evaluate." + c.Mech)
		m, err := cur.Ev.Mechanism(c.Mech)
		if err == nil {
			out = m.Run(c.Profile)
		}
		r.tr.end(id)
		if err != nil {
			r.tr.end(root)
			r.mismatch("mechanism %s: %v", c.Mech, err)
			return
		}
		r.counts.Evaluations[c.Mech]++
		id = r.tr.begin("serve.encode_outcome")
		body, err = serve.EncodeOutcome(r.specs[o.net].Name, c.Mech, out)
		r.tr.end(id)
		if err != nil {
			r.tr.end(root)
			r.mismatch("encode %s: %v", c.Mech, err)
			return
		}
		id = r.tr.begin("serve.cache_put")
		r.cache.Put(key, body)
		r.tr.end(id)
	}
	r.tr.end(root)
	if e, ok := r.http[seenKey(o.net, cur.Version, c.Key)]; ok {
		r.checks++
		r.compared++
		if !bytes.Equal(e.body, body) {
			r.mismatch("replayed %s/%s at version %d differs from the daemon's bytes", r.specs[o.net].Name, c.Mech, cur.Version)
		}
	}
	if !hit {
		r.moulinShenker(cur.Ev.Network(), c, out)
	}
}

// moulinShenker replays the Moulin–Shenker iteration of the two
// cross-monotonic light mechanisms directly on their sharing methods —
// the universal tree's Shapley method and the Jain–Vazirani moat method
// — and checks it reproduces the query engine's receivers and shares.
func (r *replayer) moulinShenker(nw *wireless.Network, c serve.CanonRequest, out mech.Outcome) {
	var xi sharing.Method
	switch c.Mech {
	case mechreg.UniversalShapley:
		spt := r.spts[nw]
		if spt == nil {
			spt = universal.SPT(nw)
			r.spts[nw] = spt
		}
		xi = spt.ShapleyMethod()
	case mechreg.JVMoat:
		xi = jv.Method(nw, nil)
	default:
		return
	}
	id := r.tr.begin("sharing.moulin_shenker")
	res := sharing.MoulinShenker(nw.AllReceivers(), xi, c.Profile)
	r.tr.end(id)
	r.counts.MSReplays++
	r.counts.MSRounds += res.Rounds
	r.checks++
	if !sameOutcome(res, out) {
		r.mismatch("Moulin–Shenker replay of %s disagrees with the query engine", c.Mech)
	}
}

func sameOutcome(res sharing.MoulinShenkerResult, out mech.Outcome) bool {
	if len(res.Receivers) != len(out.Receivers) || len(res.Shares) != len(out.Shares) {
		return false
	}
	for i, a := range res.Receivers {
		if out.Receivers[i] != a {
			return false
		}
	}
	for a, s := range res.Shares {
		if t, ok := out.Shares[a]; !ok || t != s {
			return false
		}
	}
	return true
}

func (r *replayer) patch(o op) {
	r.counts.Patches++
	root := r.tr.begin("replay.patch")
	id := r.tr.begin("query.update")
	res, err := r.ves[o.net].Update(o.update.Apply)
	r.tr.end(id)
	if err == nil && res.Incremental {
		r.counts.Incremental++
	}
	id = r.tr.begin("serve.purge")
	r.cache.DeletePrefix(cachePrefix(r.specs[o.net].Name, res.OldVersion))
	r.tr.end(id)
	r.tr.end(root)
	if err != nil {
		r.mismatch("replayed PATCH of %s: %v", r.specs[o.net].Name, err)
	}
}

// replayResult is one replay's outcome.
type replayResult struct {
	counts     workCounts
	wall       time.Duration
	spans      []span
	checks     int
	compared   int
	mismatches int
	firstErr   string
}

// replay warms a fresh replayer with the set-up operations, untraced,
// then runs the workload's first replayOps operations, traced when
// traced is set. The work counts cover the replayed operations only;
// the checks and their mismatches cover the warm-up too, which on the
// hot mixes is where every pool entry is evaluated and checked.
func replay(w *workload, nets []*wireless.Network, seed int64, traced bool, http map[string]*seenEntry) replayResult {
	r := newReplayer(w.specs, nets, nil, http)
	s := newStream(w, nets, seed)
	for _, o := range s.warmOps() {
		r.read(o)
	}
	r.counts = workCounts{Evaluations: map[string]int{}}
	ops := make([]op, w.replayOps)
	for i := range ops {
		ops[i] = s.next()
	}
	if traced {
		r.tr = newTracer()
	}
	start := time.Now()
	for i, o := range ops {
		if r.tr != nil {
			r.tr.req = int32(i)
		}
		r.run(o)
	}
	res := replayResult{counts: r.counts, wall: time.Since(start), checks: r.checks, compared: r.compared, mismatches: r.mismatches, firstErr: r.firstErr}
	if r.tr != nil {
		res.spans = r.tr.spans
	}
	return res
}

// spanStats is the count and total duration of the spans with one name.
type spanStats struct {
	n     int
	total time.Duration
}

func (s spanStats) meanMS() float64 { return ratio(float64(s.total.Nanoseconds())/1e6, float64(s.n)) }

func byName(spans []span) map[string]spanStats {
	out := map[string]spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		st.n++
		st.total += time.Duration(s.End - s.Start)
		out[s.Name] = st
	}
	return out
}

// substrateMS times the per-network substrates the daemon builds during
// set-up — the MEMT→NWST reduction and the universal shortest-path tree —
// as the median of `reps` builds, averaged over the networks.
func substrateMS(nets []*wireless.Network, reps int) (reductionMS, sptMS float64) {
	med := func(f func()) float64 {
		d := make(latencies, reps)
		for i := range d {
			t := time.Now()
			f()
			d[i] = msSince(t)
		}
		return d.median()
	}
	for _, nw := range nets {
		reductionMS += med(func() { memtred.New(nw) })
		sptMS += med(func() { universal.SPT(nw) })
	}
	return reductionMS / float64(len(nets)), sptMS / float64(len(nets))
}
