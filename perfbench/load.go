package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wmcs/internal/instances"
	"wmcs/internal/serve"
)

// sample is one timed operation as the load generator saw it.
type sample struct {
	kind  opKind
	light bool
	ok    bool
	latMS float64 // round trip
}

// seenEntry is every response for one (network, version, request): the
// first body, how many responses carried it, and how many differed.
type seenEntry struct {
	net   int
	ver   uint64
	canon serve.CanonRequest
	body  []byte
	count int
	diffs int
}

// patchRecord is one acknowledged PATCH: the delta and the version the
// daemon reported after applying it.
type patchRecord struct {
	update  instances.Update
	version uint64
	ok      bool
}

// collector keeps what the daemon answered, for verification after the
// timed phase. Recording costs a map lookup and a byte compare against
// the first response for the same key; nothing is evaluated in the loop.
type collector struct {
	mu       sync.Mutex
	seen     map[string]*seenEntry
	patches  [][]patchRecord // per network, in update-sequence order
	failed   int
	firstErr string
}

func newCollector(nets int) *collector {
	return &collector{seen: map[string]*seenEntry{}, patches: make([][]patchRecord, nets)}
}

func seenKey(net int, ver uint64, key string) string {
	return strconv.Itoa(net) + "\x1f" + strconv.FormatUint(ver, 10) + "\x1f" + key
}

func (c *collector) fail(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if c.firstErr == "" {
		c.firstErr = msg
	}
}

func (c *collector) addRead(net int, ver uint64, canon serve.CanonRequest, body []byte) {
	k := seenKey(net, ver, canon.Key)
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.seen[k]
	if e == nil {
		c.seen[k] = &seenEntry{net: net, ver: ver, canon: canon, body: body, count: 1}
		return
	}
	e.count++
	if !bytes.Equal(e.body, body) {
		e.diffs++
	}
}

func (c *collector) addPatch(net, seq int, up instances.Update, ver uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.patches[net]) <= seq {
		c.patches[net] = append(c.patches[net], patchRecord{})
	}
	c.patches[net][seq] = patchRecord{update: up, version: ver, ok: ok}
}

// loader sends operations to one daemon over at most `conns` connections.
type loader struct {
	base   string
	specs  []instances.Spec
	client *http.Client
	coll   *collector
	// turn[j] is the sequence number of network j's next PATCH; a client
	// holding a later one waits, so updates reach the daemon in order.
	turn []atomic.Int64
}

func newLoader(base string, specs []instances.Spec, coll *collector, conns int) *loader {
	return &loader{
		base:  base,
		specs: specs,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		coll: coll,
		turn: make([]atomic.Int64, len(specs)),
	}
}

// close releases the loader's idle connections.
func (d *loader) close() { d.client.CloseIdleConnections() }

// do sends one operation and records what came back; it reports success.
func (d *loader) do(o op) bool {
	if o.kind == opPatch {
		return d.patch(o)
	}
	resp, err := d.client.Post(d.base+"/v1/evaluate", "application/json", bytes.NewReader(o.body))
	if err != nil {
		d.coll.fail(err.Error())
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		d.coll.fail(err.Error())
		return false
	}
	if resp.StatusCode != http.StatusOK {
		d.coll.fail(fmt.Sprintf("evaluate %s/%s: status %d: %s", d.specs[o.net].Name, o.mech, resp.StatusCode, body))
		return false
	}
	ver, err := strconv.ParseUint(resp.Header.Get("X-Wmcs-Version"), 10, 64)
	if err != nil {
		d.coll.fail("evaluate: response without a version header")
		return false
	}
	d.coll.addRead(o.net, ver, o.canon, body)
	return true
}

func (d *loader) patch(o op) bool {
	for d.turn[o.net].Load() != int64(o.patchSeq) {
		time.Sleep(50 * time.Microsecond)
	}
	defer d.turn[o.net].Add(1)
	name := d.specs[o.net].Name
	req, err := http.NewRequest(http.MethodPatch, d.base+"/v1/networks/"+name, bytes.NewReader(o.body))
	if err != nil {
		panic(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		d.coll.fail(err.Error())
		d.coll.addPatch(o.net, o.patchSeq, o.update, 0, false)
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	var ur struct {
		Version uint64 `json:"version"`
	}
	if err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(body, &ur)
	} else if err == nil {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	if err != nil {
		d.coll.fail(fmt.Sprintf("PATCH %s: %v", name, err))
		d.coll.addPatch(o.net, o.patchSeq, o.update, 0, false)
		return false
	}
	d.coll.addPatch(o.net, o.patchSeq, o.update, ur.Version, true)
	return true
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// closedLoop runs `clients` clients that each send their next operation
// as soon as the previous one returns, until dur has elapsed. Clients
// take operations from the stream in order, under a lock. It returns the
// samples and the wall time up to the last completion.
func closedLoop(d *loader, s *stream, clients int, dur time.Duration) ([]sample, time.Duration) {
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		out = make([][]sample, clients)
	)
	start := time.Now()
	end := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				mu.Lock()
				o := s.next()
				mu.Unlock()
				t0 := time.Now()
				ok := d.do(o)
				out[c] = append(out[c], sample{kind: o.kind, light: isLight(o.mech), ok: ok, latMS: msSince(t0)})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all, wall
}
