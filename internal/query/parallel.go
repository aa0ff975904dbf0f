package query

import (
	"fmt"

	"wmcs/internal/engine"
)

// ParallelSpec configures intra-query parallelism (DESIGN.md §14): one
// expensive evaluation — the wireless-bb spider oracle's center scans,
// the sampled Shapley tier's permutation streams — runs on Workers
// engine workers instead of one. Every such reduction folds a fixed
// partition of its work, so the output is byte-identical to the serial
// evaluator's at every width: the spec changes scheduling, not results.
type ParallelSpec struct {
	// Workers is the engine-pool width, ≥ 1. There is no "auto" value
	// here by design: resolution of 0-means-GOMAXPROCS happens at the
	// flag layer (wmcsd logs the resolved width at boot), so the
	// evaluator's configuration is always explicit and reproducible.
	Workers int
}

// ParallelSpecError reports a ParallelSpec whose width is not a positive
// worker count. Mirroring sharing.AgentLimitError, the spec is rejected
// with a typed error instead of silently falling back to serial — a
// silent fallback would mask a misconfigured deployment as a slow one.
type ParallelSpecError struct {
	Workers int // the rejected width
}

// Error implements error.
func (e *ParallelSpecError) Error() string {
	return fmt.Sprintf("query: ParallelSpec.Workers must be >= 1, got %d (resolve auto-width at the flag layer)", e.Workers)
}

// Validate returns a *ParallelSpecError when the spec is invalid.
func (sp ParallelSpec) Validate() error {
	if sp.Workers < 1 {
		return &ParallelSpecError{Workers: sp.Workers}
	}
	return nil
}

// WithParallel runs heavy evaluations on an engine pool of the spec's
// width; it panics on an invalid spec — use WithParallelChecked
// to handle that as a typed error (the NewShapley/NewShapleyChecked
// pattern).
func WithParallel(spec ParallelSpec) Option {
	opt, err := WithParallelChecked(spec)
	if err != nil {
		panic(err.Error())
	}
	return opt
}

// WithParallelChecked is WithParallel returning *ParallelSpecError
// instead of panicking when the spec is invalid.
func WithParallelChecked(spec ParallelSpec) (Option, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return func(e *Evaluator) {
		e.pool = engine.New(spec.Workers)
		e.parallelWorkers = spec.Workers
		e.ctx.Pool = e.pool
	}, nil
}

// ParallelWorkers reports the configured parallel width, 0 when the
// evaluator runs serially (the default).
func (e *Evaluator) ParallelWorkers() int { return e.parallelWorkers }
