package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"wmcs/internal/instances"
	"wmcs/internal/query"
	"wmcs/internal/serve"
	"wmcs/internal/wireless"
)

// replicas rebuilds every network version the daemon reported: version
// 0 from the spec, then each acknowledged PATCH replayed in sequence.
// A replica whose version disagrees with the daemon's is drift, and
// versions past it stay unknown. A failed PATCH (already counted as a
// failure by the load generator) also leaves the later versions of its
// network unknown; lost marks those networks.
func replicas(specs []instances.Spec, patches [][]patchRecord) ([]map[uint64]*wireless.Network, []string, []bool) {
	out := make([]map[uint64]*wireless.Network, len(specs))
	lost := make([]bool, len(specs))
	var problems []string
	for j, sp := range specs {
		nw, err := sp.Build()
		if err != nil {
			panic(err)
		}
		out[j] = map[uint64]*wireless.Network{nw.Version(): nw.Snapshot()}
		for seq, p := range patches[j] {
			if !p.ok {
				lost[j] = true
				break
			}
			if err := p.update.Apply(nw); err != nil {
				problems = append(problems, fmt.Sprintf("%s: replaying PATCH %d: %v", sp.Name, seq, err))
				break
			}
			if nw.Version() != p.version {
				problems = append(problems, fmt.Sprintf("%s: PATCH %d left the daemon at version %d, the replica at %d", sp.Name, seq, p.version, nw.Version()))
				break
			}
			out[j][nw.Version()] = nw.Snapshot()
		}
	}
	return out, problems, lost
}

// errNoReplica reports a version the update stream did not reproduce.
var errNoReplica = errors.New("no replica of version")

// coldEvaluator evaluates canonical requests on one fresh evaluator per
// network version, never from a cache, and encodes the outcome the way
// the daemon does.
type coldEvaluator struct {
	specs []instances.Spec
	reps  []map[uint64]*wireless.Network
	mu    sync.Mutex
	evs   map[[2]uint64]*query.Evaluator
}

func (c *coldEvaluator) eval(net int, ver uint64, canon serve.CanonRequest) ([]byte, error) {
	c.mu.Lock()
	ev := c.evs[[2]uint64{uint64(net), ver}]
	if ev == nil {
		nw := c.reps[net][ver]
		if nw == nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("%s: %w %d", c.specs[net].Name, errNoReplica, ver)
		}
		ev = query.NewEvaluator(nw)
		c.evs[[2]uint64{uint64(net), ver}] = ev
	}
	c.mu.Unlock()
	m, err := ev.Mechanism(canon.Mech)
	if err != nil {
		return nil, err
	}
	return serve.EncodeOutcome(c.specs[net].Name, canon.Mech, m.Run(canon.Profile))
}

// verification is the outcome of checking every recorded response.
type verification struct {
	distinct  int // distinct (network, version, request) evaluated cold
	responses int // responses covered
	bad       int // responses that were wrong, plus version drift
	// unverified counts responses at versions past a failed PATCH: they
	// cannot be checked, and the failed PATCH is the failure counted.
	unverified int
	firstErr   string
}

// verify evaluates every distinct (network, version, request) the daemon
// answered, cold and in process, on `workers` goroutines, and byte-compares
// it with what the daemon returned.
func verify(specs []instances.Spec, c *collector, workers int) verification {
	reps, problems, lost := replicas(specs, c.patches)
	v := verification{bad: len(problems)}
	if len(problems) > 0 {
		v.firstErr = problems[0]
	}
	keys := make([]string, 0, len(c.seen))
	for k := range c.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	v.distinct = len(keys)
	ce := &coldEvaluator{specs: specs, reps: reps, evs: map[[2]uint64]*query.Evaluator{}}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(keys) {
					mu.Unlock()
					return
				}
				e := c.seen[keys[next]]
				next++
				mu.Unlock()
				want, err := ce.eval(e.net, e.ver, e.canon)
				bad, unverified, msg := e.diffs, 0, ""
				switch {
				case errors.Is(err, errNoReplica) && lost[e.net]:
					bad, unverified = 0, e.count
				case err != nil:
					bad, msg = e.count, err.Error()
				case !bytes.Equal(want, e.body):
					bad, msg = e.count, fmt.Sprintf("byte mismatch on %s/%s at version %d", specs[e.net].Name, e.canon.Mech, e.ver)
				case e.diffs > 0:
					msg = fmt.Sprintf("%d responses for one %s/%s request differ", e.diffs, specs[e.net].Name, e.canon.Mech)
				}
				mu.Lock()
				v.responses += e.count
				v.bad += bad
				v.unverified += unverified
				if msg != "" && v.firstErr == "" {
					v.firstErr = msg
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return v
}
