package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"wmcs/internal/obs"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// TestTailRule pins the tail percentile: the highest of p99, p90, p75
// that keeps at least ten samples beyond it, else the median.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n, pct int
		value  float64
		beyond int
	}{
		{0, 50, 0, 0},
		{5, 50, 3, 2},
		{20, 50, 10, 10},
		{39, 50, 20, 19},
		{40, 75, 30, 10},
		{99, 75, 75, 24},
		{100, 90, 90, 10},
		{999, 90, 900, 99},
		{1000, 99, 990, 10},
		{5000, 99, 4950, 50},
	} {
		got := tailAt(ramp(tc.n), tailRule(tc.n))
		if got.Pct != tc.pct || got.Value != tc.value || got.Beyond != tc.beyond || got.N != tc.n || got.RulePct != tc.pct {
			t.Errorf("n=%d: got %+v, want p%d = %v with %d beyond", tc.n, got, tc.pct, tc.value, tc.beyond)
		}
	}
	// A fixed percentile is reported as asked, with the rule's pick beside it.
	if got := tailAt(ramp(50), 90); got.Pct != 90 || got.Value != 45 || got.Beyond != 5 || got.RulePct != 75 {
		t.Errorf("p90 of 50: got %+v, want 45 with 5 beyond, rule p75", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for p, want := range map[int]float64{1: 1, 25: 1, 26: 2, 50: 2, 51: 3, 75: 3, 100: 4} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%d of %v = %v, want %v", p, s, got, want)
		}
	}
}

// declaredMetric is one metric entry of BENCHMARK.json.
type declaredMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

type benchmarkDoc struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// units renders a metric list as name → unit.
func units(list []declaredMetric) map[string]string {
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

func checkSet(t *testing.T, kind string, ms *metricSet, want map[string]string) {
	t.Helper()
	for _, name := range ms.order {
		if !metricName.MatchString(name) {
			t.Errorf("%s metric %q does not match %s", kind, name, metricName)
		}
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s metric %q is reported but not declared in BENCHMARK.json", kind, name)
		case unit != ms.vals[name].Unit:
			t.Errorf("%s metric %q reported in %q, declared in %q", kind, name, ms.vals[name].Unit, unit)
		}
	}
	for name := range want {
		if !metricName.MatchString(name) {
			t.Errorf("declared %s metric %q does not match %s", kind, name, metricName)
		}
		if _, ok := ms.vals[name]; !ok {
			t.Errorf("declared %s metric %q is never reported", kind, name)
		}
	}
}

// TestMetricNamesMatchDeclaration checks that an untraced run reports
// exactly the declared end-to-end metrics and a traced run exactly the
// declared per-layer ones, in their units, under names of the allowed
// shape.
func TestMetricNamesMatchDeclaration(t *testing.T) {
	doc := readBenchmarkDoc(t)
	e2e := newMetricSet()
	samples := []sample{
		{kind: opRead, light: true, ok: true, latMS: 1},
		{kind: opRead, ok: true, latMS: 20},
		{kind: opPatch, ok: true, latMS: 0.5},
	}
	endToEnd(e2e, tailPcts{99, 99, 90, 90}, samples, time.Second, latencies{0.3}, 1, 18)
	checkSet(t, "end-to-end", e2e, units(doc.EndToEnd))
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	layer := newMetricSet()
	empty := &obs.PromDoc{Families: map[string]*obs.PromFamily{}}
	serveMetrics(layer, empty, empty, time.Second)
	layerMetrics(layer, replayResult{}, replayResult{}, 0, 0)
	checkSet(t, "per-layer", layer, units(doc.PerLayer))
	for _, m := range doc.PerLayer {
		if moves[m.Name] == "" {
			t.Errorf("per-layer metric %q has no recorded end-to-end target", m.Name)
		}
	}
	if len(moves) != len(doc.PerLayer) {
		t.Errorf("%d recorded targets for %d per-layer metrics", len(moves), len(doc.PerLayer))
	}
}

// TestMetricSetRejectsBadNames: a malformed or repeated name is a bug in
// the benchmark, caught before anything is printed.
func TestMetricSetRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", "_lead", "has space", "semi;colon", "x/y", "a.b-c_d.9"} {
		valid := metricName.MatchString(name)
		func() {
			defer func() {
				if r := recover(); (r == nil) != valid {
					t.Errorf("put(%q): panic=%v, name valid=%v", name, r, valid)
				}
			}()
			newMetricSet().put(name, "ms", 1)
		}()
	}
	ms := newMetricSet()
	ms.put("qps", "1/s", 1)
	defer func() {
		if recover() == nil {
			t.Error("a repeated metric name was accepted")
		}
	}()
	ms.put("qps", "1/s", 2)
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "replay.read", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "serve.canonicalize", Start: 5, End: 15},
		{ID: 2, Parent: 0, Name: "query.evaluate.wireless-bb", Start: 20, End: 90},
		{ID: 3, Parent: 2, Name: "nwst.oracle", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "nwst.oracle", Start: 60, End: 80},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"replay": 20, "serve": 10, "query": 20, "nwst": 50}
	if len(got) != len(want) {
		t.Fatalf("layers %v, want %v", keys(got), keys(want))
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self time of %s = %v, want %v", l, got[l], d)
		}
	}
}

func keys(m map[string]time.Duration) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
