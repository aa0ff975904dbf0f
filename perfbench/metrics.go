package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// tailCandidates are the percentiles the tail rule chooses from, highest
// first. The rule takes the highest one that leaves at least minBeyond
// samples above it, so a tail is never one or two outliers.
var tailCandidates = []int{99, 90, 75, 50}

const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(n, p int) int {
	i := int(math.Ceil(float64(p)*float64(n)/100)) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// percentile returns the nearest-rank percentile p of sorted samples
// (0 for none).
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

// tail is one reported tail: the percentile, its value, and how many
// samples lie beyond it. RulePct is the percentile the tail rule picks
// at this run's sample count.
type tail struct {
	Pct     int     `json:"pct"`
	Value   float64 `json:"value"`
	N       int     `json:"n"`
	Beyond  int     `json:"beyond"`
	RulePct int     `json:"rule_pct"`
}

// tailAt is percentile p of sorted samples, with the sample count, the
// count beyond it, and the percentile the tail rule would pick.
func tailAt(sorted []float64, p int) tail {
	n := len(sorted)
	t := tail{Pct: p, Value: percentile(sorted, p), N: n, RulePct: tailRule(n)}
	if n > 0 {
		t.Beyond = n - 1 - rankIndex(n, p)
	}
	return t
}

// tailRule is the tail percentile for n samples: the highest candidate
// with at least minBeyond samples beyond it, or the median when even
// that has fewer. Each workload fixes its tails' percentiles by this
// rule at the benchmark's run length (see tailPcts), so that a run with
// more or fewer samples never reports a different percentile.
func tailRule(n int) int {
	for _, p := range tailCandidates {
		if n-1-rankIndex(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// metric is one reported value with its unit, the shape of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics, refusing malformed or repeated names.
type metricSet struct {
	vals  map[string]metric
	order []string
	tails map[string]tail
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]metric{}, tails: map[string]tail{}}
}

func (m *metricSet) put(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("metric name %q does not match %s", name, metricName))
	}
	if _, dup := m.vals[name]; dup {
		panic(fmt.Sprintf("metric %q reported twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = metric{Value: v, Unit: unit}
	m.order = append(m.order, name)
}

// putTail reports a tail metric and remembers its percentile and sample
// count for the printed report and the result record.
func (m *metricSet) putTail(name string, t tail) {
	m.put(name, "ms", t.Value)
	m.tails[name] = t
}

// latencies is a growable sample of millisecond latencies.
type latencies []float64

func (l latencies) sorted() []float64 {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return s
}

func (l latencies) median() float64 { return percentile(l.sorted(), 50) }

func (l latencies) tail(p int) tail { return tailAt(l.sorted(), p) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// moves records, for every per-layer metric, the end-to-end metric and
// workload it should move: the prediction a change to that layer is
// checked against. The traced report prints it beside each figure.
var moves = map[string]string{
	"serve.queue_wait_share":              "qps and light_tail_ms on uniform",
	"serve.compute_cores":                 "qps on uniform",
	"serve.evals_per_round":               "nothing: records the shape of dispatch",
	"serve.cache_hit_ratio":               "qps and p50_ms on hotset and churn",
	"serve.hit_path_us":                   "p50_ms and cpu_ms_per_query on hotset",
	"serve.encode_us":                     "cpu_ms_per_query on uniform",
	"serve.rebuild_ms":                    "patch_p50_ms and qps on churn",
	"serve.carry_forward_ms":              "patch_p50_ms and qps on churn",
	"serve.purge_ms":                      "patch_p50_ms and qps on churn",
	"serve.carried_entries":               "patch_p50_ms and qps on churn",
	"serve.canonicalize_us":               "p50_ms on hotset",
	"serve.cache_get_us":                  "p50_ms on hotset",
	"serve.encode_outcome_us":             "p50_ms on hotset",
	"query.evaluate_ms.universal-shapley": "light_p50_ms on uniform",
	"query.evaluate_ms.universal-mc":      "light_p50_ms on uniform",
	"query.evaluate_ms.wireless-bb":       "bb_p50_ms on uniform",
	"query.evaluate_ms.jv-moat":           "light_p50_ms on uniform",
	"query.evaluations.universal-shapley": "light_p50_ms on uniform",
	"query.evaluations.universal-mc":      "light_p50_ms on uniform",
	"query.evaluations.wireless-bb":       "bb_p50_ms on uniform",
	"query.evaluations.jv-moat":           "light_p50_ms on uniform",
	"query.update_ms":                     "patch_p50_ms on churn",
	"query.update_incremental_share":      "patch_p50_ms on churn",
	"nwst.oracle_calls":                   "bb_p50_ms on uniform; zero on hotset",
	"nwst.oracle_ms":                      "bb_p50_ms on uniform; zero on hotset",
	"nwst.oracle_share_of_bb":             "bb_p50_ms on uniform",
	"memtred.new_ms":                      "setup_s",
	"universal.spt_ms":                    "setup_s",
	"sharing.ms_rounds":                   "light_p50_ms on uniform",
	"sharing.ms_ms":                       "light_p50_ms on uniform",
	"trace.overhead_share":                "nothing: the cost of tracing the replay",
	"trace.self_ms.replay":                "nothing: the replay loop's own time",
	"trace.self_ms.serve":                 "p50_ms on hotset",
	"trace.self_ms.query":                 "light_p50_ms and bb_p50_ms on uniform",
	"trace.self_ms.nwst":                  "bb_p50_ms on uniform",
	"trace.self_ms.sharing":               "light_p50_ms on uniform",
}
