// Command perfbench is the wmcs serving benchmark. It boots wmcsd over
// the workload's networks, drives it over HTTP from this one process
// with at most nproc connections, verifies every answer cold and in
// process after the timed phase, and prints the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1), the latter from
// /metricsz deltas plus a traced in-process replay of the same stream.
//
// Usage, from the repository root (perfbench/run.sh builds both
// binaries first):
//
//	perfbench -wmcsd bin/wmcsd -workload uniform -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// human-readable report and the host fingerprint. A result record with
// every figure, tail percentile and sample count is written under -out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"wmcs/internal/mechreg"
	"wmcs/internal/obs"
	"wmcs/internal/wireless"
)

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: uniform | hotset | churn")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics; 1 = per-layer metrics from /metricsz and a traced replay")
		bin     = flag.String("wmcsd", "", "wmcsd binary under test")
		out     = flag.String("out", ".bench_build/results", "directory for result records, spans and daemon logs")
	)
	flag.Parse()
	w, err := workloadByName(*wlName)
	if err == nil && *bin == "" {
		err = errors.New("-wmcsd is required")
	}
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()
	code := run(config{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1, bin: *bin, out: *out})
	stopAll()
	os.Exit(code)
}

type config struct {
	w      *workload
	seed   int64
	dur    time.Duration
	traced bool
	bin    string
	out    string
}

// record is the result file: everything the final line carries, plus
// the host fingerprint, tail percentiles and verification detail.
type record struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Seconds        float64            `json:"seconds"`
	Trace          bool               `json:"trace"`
	Host           host               `json:"host"`
	Correct        bool               `json:"correct"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	ErrorRate      float64            `json:"error_rate"`
	FirstError     string             `json:"first_error,omitempty"`
	Distinct       int                `json:"verified_distinct"`
	Unverified     int                `json:"unverified_responses"`
	Metrics        map[string]metric  `json:"metrics"`
	Tails          map[string]tail    `json:"tails"`
	Replay         *workCounts        `json:"replay_counts,omitempty"`
	SelfMS         map[string]float64 `json:"self_ms,omitempty"`
	ReplayCompared int                `json:"replay_compared,omitempty"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(cfg config) int {
	if err := bench(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func bench(cfg config) error {
	w := cfg.w
	nets, err := buildNets(w.specs)
	if err != nil {
		return err
	}
	t := 0
	if cfg.traced {
		t = 1
	}
	dir := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d", w.name, cfg.seed, t))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	conns := runtime.NumCPU()

	// Set-up: boot, register the networks (the manifest), warm. Timed
	// several times for a steady median; the last daemon is measured.
	setups := 5
	if cfg.traced {
		setups = 1
	}
	var (
		setupS latencies
		d      *daemon
	)
	defer func() { d.stop() }()
	for i := 0; i < setups; i++ {
		d.stop()
		t0 := time.Now()
		if d, err = startDaemon(cfg.bin, dir, w.specs); err != nil {
			return err
		}
		if err := warm(d.base, w, nets, cfg.seed); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	// Timed phase.
	coll := newCollector(len(nets))
	drv := newLoader(d.base, w.specs, coll, conns)
	s := newStream(w, nets, cfg.seed)
	m0, err := d.scrape()
	if err != nil {
		return err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	samples, wall := closedLoop(drv, s, conns, cfg.dur)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	m1, err := d.scrape()
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	drv.close()
	d.stop()

	// Verification, outside any timing.
	v := verify(w.specs, coll, conns)
	rec := record{
		Workload:   w.name,
		Seed:       cfg.seed,
		Seconds:    wall.Seconds(),
		Trace:      cfg.traced,
		Host:       fingerprint("."),
		Distinct:   v.distinct,
		Unverified: v.unverified,
	}
	rec.Attempted, rec.Failed = tally(samples, coll, v)
	rec.FirstError = coll.firstErr
	if rec.FirstError == "" {
		rec.FirstError = v.firstErr
	}

	ms := newMetricSet()
	if cfg.traced {
		serveMetrics(ms, m0, m1, wall)
		if err := replayMetrics(ms, &rec, cfg, nets, coll, dir); err != nil {
			return err
		}
	} else {
		endToEnd(ms, w.tails, samples, wall, setupS, cpu1-cpu0, rss)
	}
	rec.ErrorRate = ratio(float64(rec.Failed), float64(rec.Attempted))
	rec.Correct = rec.Failed == 0
	rec.Metrics, rec.Tails = ms.vals, ms.tails
	report(rec, ms)
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), b, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: ms.vals})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return fmt.Errorf("correctness check failed: %d of %d operations failed (first: %s)", rec.Failed, rec.Attempted, rec.FirstError)
	}
	return nil
}

// tally counts operations against failures. Every timed operation is an
// attempt; a failure is an operation the daemon did not answer with 200
// in time, a response whose bytes differ from a cold evaluation of its
// (network, version, request), or a version the daemon reported that the
// update stream does not reproduce.
func tally(samples []sample, coll *collector, v verification) (attempted, failed int) {
	return len(samples), coll.failed + v.bad
}

// warm sends the set-up queries one at a time; every one must succeed.
func warm(base string, w *workload, nets []*wireless.Network, seed int64) error {
	coll := newCollector(len(nets))
	drv := newLoader(base, w.specs, coll, 1)
	defer drv.close()
	for _, o := range newStream(w, nets, seed).warmOps() {
		if !drv.do(o) {
			return fmt.Errorf("warm-up failed: %s", coll.firstErr)
		}
	}
	return nil
}

// endToEnd fills the user-visible metrics of an untraced run.
func endToEnd(ms *metricSet, pct tailPcts, samples []sample, wall time.Duration, setupS latencies, cpuS, rssMB float64) {
	var all, light, bb, patch latencies
	for _, s := range samples {
		switch {
		case !s.ok:
		case s.kind == opPatch:
			patch = append(patch, s.latMS)
		default:
			all = append(all, s.latMS)
			if s.light {
				light = append(light, s.latMS)
			} else {
				bb = append(bb, s.latMS)
			}
		}
	}
	ms.put("setup_s", "s", setupS.median())
	ms.put("qps", "1/s", float64(len(all))/wall.Seconds())
	ms.put("p50_ms", "ms", all.median())
	ms.putTail("tail_ms", all.tail(pct.all))
	ms.put("light_p50_ms", "ms", light.median())
	ms.putTail("light_tail_ms", light.tail(pct.light))
	ms.put("bb_p50_ms", "ms", bb.median())
	ms.putTail("bb_tail_ms", bb.tail(pct.bb))
	ms.put("patch_p50_ms", "ms", patch.median())
	ms.putTail("patch_tail_ms", patch.tail(pct.patch))
	ms.put("cpu_ms_per_query", "ms", ratio(cpuS*1000, float64(len(all))))
	ms.put("peak_rss_mb", "MiB", rssMB)
}

// serveMetrics derives the serve layer's figures from the /metricsz
// deltas over the timed phase.
func serveMetrics(ms *metricSet, m0, m1 *obs.PromDoc, wall time.Duration) {
	d := func(name string, labels map[string]string) float64 {
		va, _ := m0.Get(name, labels)
		vb, _ := m1.Get(name, labels)
		return vb - va
	}
	stage := func(st, suffix string) float64 {
		return d("wmcs_stage_duration_seconds"+suffix, map[string]string{"stage": st})
	}
	served := m1.Sum("wmcs_request_duration_seconds_sum", nil) - m0.Sum("wmcs_request_duration_seconds_sum", nil)
	ms.put("serve.queue_wait_share", "ratio", ratio(stage("queue_wait", "_sum"), served))
	ms.put("serve.compute_cores", "cores", stage("compute", "_sum")/wall.Seconds())
	ms.put("serve.evals_per_round", "count", ratio(d("wmcs_batched_queries_total", nil), d("wmcs_batches_total", nil)))
	hits, misses := d("wmcs_cache_hits_total", nil), d("wmcs_cache_misses_total", nil)
	ms.put("serve.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	hitPath := stage("admission", "_sum") + stage("canonicalize", "_sum") + stage("cache_lookup", "_sum")
	ms.put("serve.hit_path_us", "us", ratio(hitPath*1e6, stage("canonicalize", "_count")))
	ms.put("serve.encode_us", "us", ratio(stage("encode", "_sum")*1e6, stage("encode", "_count")))
	for _, st := range []string{"rebuild", "carry_forward", "purge"} {
		ms.put("serve."+st+"_ms", "ms", ratio(stage(st, "_sum")*1e3, stage(st, "_count")))
	}
	ms.put("serve.carried_entries", "count", ratio(d("wmcs_carried_entries_total", nil), d("wmcs_updates_total", nil)))
}

// replayMetrics runs the replay untraced and traced, checks that both
// did the same work and that the traced one reproduced the HTTP run's
// bytes, writes the spans, and derives the per-layer figures. Each of
// the replay's checks is an attempt: its comparisons, the comparison of
// the two replays' work, and the requirement that some replayed bytes
// were compared with the HTTP run's at all.
func replayMetrics(ms *metricSet, rec *record, cfg config, nets []*wireless.Network, coll *collector, dir string) error {
	plain := replay(cfg.w, nets, cfg.seed, false, nil)
	traced := replay(cfg.w, nets, cfg.seed, true, coll.seen)
	rec.Attempted += traced.checks + 2
	rec.Failed += traced.mismatches
	fail := func(msg string) {
		rec.Failed++
		if rec.FirstError == "" {
			rec.FirstError = msg
		}
	}
	if rec.FirstError == "" {
		rec.FirstError = traced.firstErr
	}
	if !reflect.DeepEqual(plain.counts, traced.counts) {
		fail("traced and untraced replays did different work")
	}
	if traced.compared == 0 {
		fail("the replay compared no response with the HTTP run's")
	}
	rec.Replay = &traced.counts
	rec.ReplayCompared = traced.compared
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), traced.spans); err != nil {
		return err
	}
	red, spt := substrateMS(nets, 5)
	rec.SelfMS = layerMetrics(ms, plain, traced, red, spt)
	return nil
}

// layerMetrics derives the replay's per-layer figures from the traced
// run's spans and counts, and returns each layer's self time.
func layerMetrics(ms *metricSet, plain, traced replayResult, reductionMS, sptMS float64) map[string]float64 {
	st := byName(traced.spans)
	c := traced.counts
	ms.put("serve.canonicalize_us", "us", st["serve.canonicalize"].meanMS()*1e3)
	ms.put("serve.cache_get_us", "us", st["serve.cache_get"].meanMS()*1e3)
	ms.put("serve.encode_outcome_us", "us", st["serve.encode_outcome"].meanMS()*1e3)
	for _, m := range mechreg.GeneralNames() {
		ms.put("query.evaluate_ms."+m, "ms", st["query.evaluate."+m].meanMS())
		ms.put("query.evaluations."+m, "count", float64(c.Evaluations[m]))
	}
	ms.put("query.update_ms", "ms", st["query.update"].meanMS())
	ms.put("query.update_incremental_share", "ratio", ratio(float64(c.Incremental), float64(c.Patches)))
	oracle := st["nwst.oracle"]
	ms.put("nwst.oracle_calls", "count", float64(c.OracleCalls))
	ms.put("nwst.oracle_ms", "ms", float64(oracle.total.Nanoseconds())/1e6)
	ms.put("nwst.oracle_share_of_bb", "ratio", ratio(float64(oracle.total), float64(st["query.evaluate."+mechreg.WirelessBB].total)))
	ms.put("memtred.new_ms", "ms", reductionMS)
	ms.put("universal.spt_ms", "ms", sptMS)
	ms.put("sharing.ms_rounds", "count", float64(c.MSRounds))
	ms.put("sharing.ms_ms", "ms", st["sharing.moulin_shenker"].meanMS())
	ms.put("trace.overhead_share", "ratio", ratio(float64(traced.wall-plain.wall), float64(plain.wall)))
	self := selfTimes(traced.spans)
	out := map[string]float64{}
	for _, l := range []string{"replay", "serve", "query", "nwst", "sharing"} {
		out[l] = float64(self[l].Nanoseconds()) / 1e6
		ms.put("trace.self_ms."+l, "ms", out[l])
	}
	return out
}

// report prints the human-readable lines that precede the result line.
func report(rec record, ms *metricSet) {
	fmt.Printf("perfbench %s seed=%d trace=%v timed=%.2fs attempted=%d failed=%d error_rate=%.6f distinct_verified=%d unverified=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Seconds, rec.Attempted, rec.Failed, rec.ErrorRate, rec.Distinct, rec.Unverified)
	hb, _ := json.Marshal(rec.Host)
	fmt.Printf("host %s\n", hb)
	for _, name := range ms.order {
		m := ms.vals[name]
		extra := ""
		if t, ok := ms.tails[name]; ok {
			extra = fmt.Sprintf("  (p%d of %d samples, %d beyond)", t.Pct, t.N, t.Beyond)
			if t.RulePct != t.Pct {
				extra += fmt.Sprintf(" [the tail rule picks p%d at this count]", t.RulePct)
			}
		}
		if m, ok := moves[name]; ok {
			extra += "  -> " + m
		}
		fmt.Printf("  %-36s %14.6f %-6s%s\n", name, m.Value, m.Unit, extra)
	}
	if !rec.Trace {
		fmt.Printf("  %-36s %14.6f %-6s  (%d failed of %d attempted)\n", "error_rate", rec.ErrorRate, "ratio", rec.Failed, rec.Attempted)
	}
	if rec.FirstError != "" {
		fmt.Printf("first error: %s\n", rec.FirstError)
	}
}
