package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"wmcs/internal/instances"
	"wmcs/internal/mechreg"
	"wmcs/internal/query"
	"wmcs/internal/serve"
)

// stubOps are n distinct reads against the first demo network.
func stubOps(t *testing.T, n int) []op {
	t.Helper()
	specs := serve.DefaultSpecs()[:1]
	nets, err := buildNets(specs)
	if err != nil {
		t.Fatal(err)
	}
	nw := nets[0]
	ops := make([]op, n)
	for i := range ops {
		u := make([]float64, nw.N())
		u[1] = float64(i + 1)
		ops[i] = readOp(specs[0], nw, 0, instances.Query{R: []int{1}, U: u}, []string{mechreg.UniversalMC})
	}
	return ops
}

// stubServer answers /v1/evaluate with 200 and a version header when
// hook, run on the request's 0-based arrival index, lets it.
func stubServer(t *testing.T, hook func(i int64, w http.ResponseWriter) bool) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !hook(n.Add(1)-1, w) {
			return
		}
		w.Header().Set("X-Wmcs-Version", "0")
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestFailuresCountAgainstAttempts: non-200 answers and dropped
// connections are failures, each counted once against the attempts.
func TestFailuresCountAgainstAttempts(t *testing.T) {
	srv := stubServer(t, func(i int64, w http.ResponseWriter) bool {
		switch i % 4 {
		case 1:
			http.Error(w, "boom", http.StatusInternalServerError)
			return false
		case 2:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return false
		}
		return true
	})
	ops := stubOps(t, 40)
	coll := newCollector(1)
	d := newLoader(srv.URL, serve.DefaultSpecs()[:1], coll, 1)
	defer d.close()
	var samples []sample
	bad := 0
	for _, o := range ops {
		ok := d.do(o)
		samples = append(samples, sample{kind: o.kind, light: isLight(o.mech), ok: ok, latMS: 1})
		if !ok {
			bad++
		}
	}
	attempted, failed := tally(samples, coll, verification{})
	if attempted != len(ops) || failed != bad || failed != 20 {
		t.Fatalf("attempted %d failed %d (samples not ok: %d), want %d attempted and 20 failed", attempted, failed, bad, len(ops))
	}
	ms := newMetricSet()
	endToEnd(ms, tailPcts{}, samples, time.Second, latencies{1}, 0, 1)
	if got := ms.vals["qps"].Value; got != 20 {
		t.Errorf("qps counts %v successes per second, want 20", got)
	}
}

// TestVerifyCountsMismatches: a response whose bytes differ from the cold
// evaluation, and a repeat that differs from the first response, both
// count as failures; a correct one does not.
func TestVerifyCountsMismatches(t *testing.T) {
	specs := serve.DefaultSpecs()[:1]
	ops := stubOps(t, 3)
	reps, problems, _ := replicas(specs, make([][]patchRecord, 1))
	if len(problems) > 0 {
		t.Fatal(problems)
	}
	cold := &coldEvaluator{specs: specs, reps: reps, evs: map[[2]uint64]*query.Evaluator{}}
	want := make([][]byte, len(ops))
	for i, o := range ops {
		b, err := cold.eval(0, 0, o.canon)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}
	coll := newCollector(1)
	coll.addRead(0, 0, ops[0].canon, want[0])           // correct
	coll.addRead(0, 0, ops[1].canon, []byte(`{"x":1}`)) // wrong, twice
	coll.addRead(0, 0, ops[1].canon, []byte(`{"x":1}`))
	coll.addRead(0, 0, ops[2].canon, want[2]) // correct, then a differing repeat
	coll.addRead(0, 0, ops[2].canon, []byte(`{}`))
	v := verify(specs, coll, 2)
	if v.distinct != 3 || v.responses != 5 || v.bad != 3 {
		t.Fatalf("verification %+v, want 3 distinct, 5 responses, 3 bad", v)
	}
	if _, failed := tally(nil, coll, v); failed != 3 {
		t.Fatalf("tally failed = %d, want 3", failed)
	}
}

// TestFailedPatchCountsOnce: a failed PATCH is one failure. Reads at the
// versions past it cannot be checked and are reported as unverified, not
// counted again; a read at a version no PATCH explains is still a failure.
func TestFailedPatchCountsOnce(t *testing.T) {
	specs := serve.DefaultSpecs()[:2]
	ops := stubOps(t, 1)
	coll := newCollector(len(specs))
	coll.fail("PATCH uni12: status 500")
	coll.addPatch(0, 0, instances.Update{}, 0, false)
	coll.addRead(0, 1, ops[0].canon, []byte(`{}`))
	coll.addRead(0, 2, ops[0].canon, []byte(`{}`))
	coll.addRead(0, 2, ops[0].canon, []byte(`{}`))
	v := verify(specs, coll, 2)
	if v.bad != 0 || v.unverified != 3 {
		t.Fatalf("verification %+v, want 0 bad and 3 unverified", v)
	}
	if _, failed := tally(nil, coll, v); failed != 1 {
		t.Fatalf("tally failed = %d, want 1", failed)
	}
	coll.addRead(1, 5, ops[0].canon, []byte(`{}`)) // a version nothing explains
	if v := verify(specs, coll, 2); v.bad != 1 || v.unverified != 3 {
		t.Fatalf("verification %+v, want 1 bad and 3 unverified", v)
	}
}
