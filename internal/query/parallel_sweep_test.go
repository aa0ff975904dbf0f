package query

import (
	"errors"
	"math"
	"testing"

	"wmcs/internal/mech"
	"wmcs/internal/mechreg"
)

// This file is the width-invariance sweep (DESIGN.md §14): over the full
// registry × scenario grid, the plain (serial) evaluator and evaluators
// built with WithParallel at every width must answer bit-identically —
// exact outcomes, sampled outcomes, AND the (ε, δ) certificates. Every
// reduction folds a fixed partition, so the width only schedules work.

// sameCert compares approx certificates bitwise (nil == nil).
func sameCert(a, b *mech.ApproxCert) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Samples == b.Samples && a.Delta == b.Delta &&
		math.Float64bits(a.Epsilon) == math.Float64bits(b.Epsilon) &&
		math.Float64bits(a.DeltaMax) == math.Float64bits(b.DeltaMax)
}

// withApproxTier appends, for every mechanism in reqs that declares a
// sampled tier, a copy of each of its requests routed through that tier.
func withApproxTier(reqs []Request) []Request {
	out := append([]Request(nil), reqs...)
	for _, r := range reqs {
		d, err := mechreg.ByName(r.Mech)
		if err != nil || !d.Approx {
			continue
		}
		ar := r
		ar.Approx = &mech.ApproxSpec{Samples: 48, Delta: 0.1, Seed: 31}
		out = append(out, ar)
	}
	return out
}

func TestParallelWidthInvariantSweep(t *testing.T) {
	const n = 9
	for _, f := range sweepFamilies(n) {
		f := f
		t.Run(f.spec.Name, func(t *testing.T) {
			nw, err := f.spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			reqs := withApproxTier(sweepRequests(nw, f.mechs, f.spec.Seed))

			// The plain evaluator is width 0 of the sweep: serial is the
			// nil-pool fold.
			base := NewEvaluator(nw).EvaluateBatch(reqs, 1)
			for _, width := range []int{1, 2, 3, 8} {
				pw := NewEvaluator(nw, WithParallel(ParallelSpec{Workers: width}))
				got := pw.EvaluateBatch(reqs, 1)
				for i := range got {
					if (got[i].Err == nil) != (base[i].Err == nil) {
						t.Fatalf("width %d req %d (%s): err %v vs %v",
							width, i, reqs[i].Mech, got[i].Err, base[i].Err)
					}
					if got[i].Err != nil {
						continue
					}
					if !sameOutcome(got[i].Outcome, base[i].Outcome) {
						t.Fatalf("width %d req %d (%s, approx=%v, |R|=%d): outcomes diverge from serial\ngot:  %+v\nwant: %+v",
							width, i, reqs[i].Mech, reqs[i].Approx != nil, len(reqs[i].R),
							got[i].Outcome, base[i].Outcome)
					}
					if !sameCert(got[i].Cert, base[i].Cert) {
						t.Fatalf("width %d req %d (%s): certificates diverge from serial\ngot:  %+v\nwant: %+v",
							width, i, reqs[i].Mech, got[i].Cert, base[i].Cert)
					}
				}
			}
		})
	}
}

// TestParallelSurvivesVersionedUpdate: WithParallel is part of the
// versioned evaluator's option set, so every rebuilt generation keeps
// the configured width, and post-update answers still match a cold
// width-1 parallel evaluator over the updated network.
func TestParallelSurvivesVersionedUpdate(t *testing.T) {
	f := sweepFamilies(9)[0]
	nw, err := f.spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ve := NewVersioned(nw, WithParallel(ParallelSpec{Workers: 4}))
	if w := ve.Evaluator().ParallelWorkers(); w != 4 {
		t.Fatalf("pre-update width = %d, want 4", w)
	}
	reqs := withApproxTier(sweepRequests(ve.Network(), f.mechs, f.spec.Seed))
	ve.Evaluator().EvaluateBatch(reqs, 1) // warm the mechanism set
	if _, err := ve.Update(mutateForUpdate); err != nil {
		t.Fatal(err)
	}
	if w := ve.Evaluator().ParallelWorkers(); w != 4 {
		t.Fatalf("post-update width = %d, want 4 (options must carry across swaps)", w)
	}
	after := ve.Evaluator().EvaluateBatch(reqs, 1)
	cold := NewEvaluator(ve.Network(), WithParallel(ParallelSpec{Workers: 1})).EvaluateBatch(reqs, 1)
	for i := range after {
		if (after[i].Err == nil) != (cold[i].Err == nil) {
			t.Fatalf("req %d (%s): err %v vs %v", i, reqs[i].Mech, after[i].Err, cold[i].Err)
		}
		if after[i].Err == nil && (!sameOutcome(after[i].Outcome, cold[i].Outcome) || !sameCert(after[i].Cert, cold[i].Cert)) {
			t.Fatalf("post-update width-4 diverges from cold width-1 (req %d, %s)", i, reqs[i].Mech)
		}
	}
}

// TestParallelSpecValidation pins the typed-error contract: zero and
// negative widths are rejected with *ParallelSpecError (auto-width is
// the flag layer's job), and the panicking constructor panics.
func TestParallelSpecValidation(t *testing.T) {
	for _, w := range []int{0, -1, -8} {
		_, err := WithParallelChecked(ParallelSpec{Workers: w})
		var pe *ParallelSpecError
		if !errors.As(err, &pe) {
			t.Fatalf("WithParallelChecked(%d): err = %v, want *ParallelSpecError", w, err)
		}
		if pe.Workers != w {
			t.Fatalf("ParallelSpecError.Workers = %d, want %d", pe.Workers, w)
		}
	}
	if opt, err := WithParallelChecked(ParallelSpec{Workers: 2}); err != nil || opt == nil {
		t.Fatalf("WithParallelChecked(2): opt=%v err=%v", opt, err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("WithParallel(ParallelSpec{Workers: 0}) did not panic")
			}
		}()
		WithParallel(ParallelSpec{Workers: 0})
	}()
	ev := NewEvaluator(nil)
	if w := ev.ParallelWorkers(); w != 0 {
		t.Fatalf("default ParallelWorkers = %d, want 0 (serial)", w)
	}
}
