package main

import (
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"wmcs/internal/mechreg"
	"wmcs/internal/serve"
)

// shortReplay is each workload with its replay cut to a test-sized
// prefix that still crosses three PATCHes.
func shortReplay(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	short := *w
	short.replayOps = 3 * (w.patchEvery + 1)
	return &short
}

// TestReplayWorkCountsRepeat: the replay's deterministic work counts —
// evaluations per mechanism, oracle calls, Moulin–Shenker rounds, cache
// hits, incremental updates — repeat exactly across two traced replays
// of one seed, and the untraced replay does the same work.
func TestReplayWorkCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := shortReplay(t, w.name)
			nets, err := buildNets(w.specs)
			if err != nil {
				t.Fatal(err)
			}
			a := replay(w, nets, 7, true, nil)
			b := replay(w, nets, 7, true, nil)
			plain := replay(w, nets, 7, false, nil)
			for _, r := range []replayResult{a, b, plain} {
				if r.mismatches != 0 {
					t.Fatalf("replay mismatch: %s", r.firstErr)
				}
			}
			if !reflect.DeepEqual(a.counts, b.counts) {
				t.Fatalf("two traced replays of one seed differ:\n%+v\n%+v", a.counts, b.counts)
			}
			if !reflect.DeepEqual(a.counts, plain.counts) {
				t.Fatalf("traced and untraced replays differ:\n%+v\n%+v", a.counts, plain.counts)
			}
			if len(a.spans) == 0 || len(plain.spans) != 0 {
				t.Fatalf("traced replay kept %d spans, untraced %d", len(a.spans), len(plain.spans))
			}
			c := a.counts
			if c.Patches != 3 {
				t.Errorf("replay crossed %d PATCHes, want 3", c.Patches)
			}
			switch w.name {
			case "uniform":
				if c.CacheHits != 0 || c.Evaluations[mechreg.WirelessBB] == 0 || c.OracleCalls == 0 || c.MSRounds == 0 {
					t.Errorf("uniform replay did not exercise compute: %+v", c)
				}
			case "hotset":
				if c.CacheHits != c.Reads || c.OracleCalls != 0 {
					t.Errorf("hotset replay after warm-up should only hit: %+v", c)
				}
			case "churn":
				if c.CacheHits == 0 || c.CacheHits == c.Reads {
					t.Errorf("churn replay should mix hits and misses: %+v", c)
				}
			}
		})
	}
}

// TestHTTPRunVerifiesAndReplayMatches drives an in-process server with
// the churn mix — reads and in-order PATCHes over nproc connections —
// then checks every response cold and replays the stream in process:
// both must agree with the daemon's bytes, version by version.
func TestHTTPRunVerifiesAndReplayMatches(t *testing.T) {
	w := shortReplay(t, "churn")
	nets, err := buildNets(w.specs)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	for _, sp := range w.specs {
		if err := reg.RegisterSpec(sp); err != nil {
			t.Fatal(err)
		}
	}
	srv := serve.NewServer(reg, serve.Options{})
	hs := httptest.NewServer(srv)
	defer func() {
		hs.Close()
		srv.Close()
	}()
	const seed = 3
	if err := warm(hs.URL, w, nets, seed); err != nil {
		t.Fatal(err)
	}
	coll := newCollector(len(nets))
	d := newLoader(hs.URL, w.specs, coll, runtime.NumCPU())
	samples, _ := closedLoop(d, newStream(w, nets, seed), runtime.NumCPU(), 1500*time.Millisecond)
	d.close()
	patches := 0
	for _, s := range samples {
		if s.kind == opPatch {
			patches++
		}
	}
	v := verify(w.specs, coll, runtime.NumCPU())
	if attempted, failed := tally(samples, coll, v); failed != 0 || patches == 0 {
		t.Fatalf("%d of %d operations failed (%d PATCHes): %s %s", failed, attempted, patches, coll.firstErr, v.firstErr)
	}
	r := replay(w, nets, seed, true, coll.seen)
	if r.mismatches != 0 || r.compared == 0 {
		t.Fatalf("replay compared %d responses, %d mismatches: %s", r.compared, r.mismatches, r.firstErr)
	}
}
