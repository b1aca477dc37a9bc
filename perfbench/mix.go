package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"stash"
	"stash/internal/cluster"
	"stash/internal/serve"
)

const (
	// mixClients is the closed loop's client count, chosen: stashd's
	// callers (stashsim -server, paperfigs -server) each wait for their
	// reply, and the reference host has two cores. The traced run uses one
	// client, because the coordinator does not forward request IDs.
	mixClients = 2
	// mixSetups is how many times a run builds and warms the cluster;
	// setup_s is their median.
	mixSetups = 3
	// poolPerShard is how many old cells each shard holds in pairtree
	// only when the run starts: the store-hit and peer-fill supply.
	poolPerShard = 40
	sweepToken   = "sweep"
)

// stormCells are the Fig. 5 cells whose L1 replay storms take seconds
// each; the warm sweep leaves them out so set-up stays short.
var stormCells = []string{"reuse/Scratch", "reuse/ScratchG", "reuse/Cache"}

// cheapCells are the Fig. 5 cells that simulate fastest (about 10-25 ms
// on the reference host): pool cells and cold requests use them.
var cheapCells = []string{
	"implicit/ScratchGD", "implicit/Stash", "implicit/StashG",
	"on-demand/ScratchGD", "on-demand/Cache", "on-demand/Stash", "on-demand/StashG",
}

// mixCell is one Fig. 5 cell the mix can request.
type mixCell struct {
	spec  stash.RunSpec
	owner int    // index into shardURLs
	query string // its GET /v1/cell query
}

// mixCells builds the Fig. 5 cell table, the sweep and cheap subsets,
// and each cell's owning shard on the coordinator's ring.
func mixCells() (cells []mixCell, sweep, cheap []int, err error) {
	ring, err := cluster.NewRing(shardURLs, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	for i, spec := range stash.Grid(stash.Microbenchmarks(), stash.Orgs()) {
		fp, err := spec.Fingerprint()
		if err != nil {
			return nil, nil, nil, err
		}
		owner := slices.Index(shardURLs, ring.Owner(fp))
		q := url.Values{"workload": {spec.Workload}, "org": {spec.Config.Org.String()}}
		cells = append(cells, mixCell{spec: spec, owner: owner, query: q.Encode()})
		if !slices.Contains(stormCells, spec.String()) {
			sweep = append(sweep, i)
		}
		if slices.Contains(cheapCells, spec.String()) {
			cheap = append(cheap, i)
		}
	}
	return cells, sweep, cheap, nil
}

// mixInputs is the seeded part of the workload: the sweep cells and the
// pool of old cells each shard starts with.
func mixInputs(seed int64, cells []mixCell, sweep, cheap []int) (sweepKeys, pool []mixKey) {
	for _, c := range sweep {
		sweepKeys = append(sweepKeys, mixKey{token: sweepToken, cell: c})
	}
	for s := range shardURLs {
		var owned []int // the cheap cells shard s owns
		for _, c := range cheap {
			if cells[c].owner == s {
				owned = append(owned, c)
			}
		}
		for i := 0; i < poolPerShard && len(owned) > 0; i++ {
			tok := fmt.Sprintf("pool-%d-%d-%d", seed, s, i/len(owned))
			pool = append(pool, mixKey{token: tok, cell: owned[i%len(owned)]})
		}
	}
	return sweepKeys, pool
}

// mixEnv is one set-up cluster with everything the clients share.
type mixEnv struct {
	cells     []mixCell
	cheap     []int
	sweepKeys []mixKey
	sweepBody []byte
	pool      []mixKey
	golden    golden
	client    *http.Client
	lb        *loopback
	dir       string
	cl        *stashCluster
	base      []map[string]float64 // /metrics after warm-up: coordinator, shards

	mu    sync.Mutex
	first map[mixKey][]byte // each cell's first reply line
}

func newMixEnv(out string, seed int64) (*mixEnv, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	cells, sweep, cheap, err := mixCells()
	if err != nil {
		return nil, err
	}
	sweepKeys, pool := mixInputs(seed, cells, sweep, cheap)
	specs := make([]stash.RunSpec, len(sweep))
	for i, c := range sweep {
		specs[i] = cells[c].spec
	}
	body, err := json.Marshal(serve.SweepRequest{Specs: specs})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "mix-")
	if err != nil {
		return nil, err
	}
	lb := &loopback{addrs: make(map[string]string)}
	client := &http.Client{
		Transport: &http.Transport{DialContext: lb.dial, MaxIdleConnsPerHost: 32, DisableCompression: true},
		Timeout:   time.Minute,
	}
	return &mixEnv{
		cells: cells, cheap: cheap, sweepKeys: sweepKeys, sweepBody: body, pool: pool,
		golden: g, client: client, lb: lb, dir: dir, first: make(map[mixKey][]byte),
	}, nil
}

// setupMix builds the cluster and its warm set: it simulates the sweep
// and pool cells through a first cluster, restarts the cluster over the
// same pairtree directories (so every cell is on disk and none in
// memory), loads the sweep cells into memory one by one, and snapshots
// the counters the run is measured against.
func setupMix(out string, seed int64, wrap func(string, http.Handler) http.Handler) (*mixEnv, error) {
	e, err := newMixEnv(out, seed)
	if err != nil {
		return nil, err
	}
	if err := e.prefill(); err != nil {
		return nil, errors.Join(err, e.close())
	}
	if e.cl, err = startCluster(e.dir, e.lb, e.client, wrap); err != nil {
		return nil, errors.Join(err, e.close())
	}
	for _, k := range e.sweepKeys {
		line, err := e.get(coordURL, k.token, e.cells[k.cell].query)
		if err == nil {
			err = e.checkReplay(k, line)
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("warming %s: %w", e.cells[k.cell].spec, err), e.close())
		}
	}
	if e.base, err = e.scrape(); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

// prefill simulates the sweep cells and the pool through a cluster that
// it then stops, checking each reply against golden.
func (e *mixEnv) prefill() error {
	cl, err := startCluster(e.dir, e.lb, e.client, nil)
	if err != nil {
		return err
	}
	// One sweep per namespace token; two in flight keep both shards busy.
	groups := map[string][]mixKey{sweepToken: e.sweepKeys}
	var tokens []string
	for _, k := range e.pool {
		if groups[k.token] == nil {
			tokens = append(tokens, k.token)
		}
		groups[k.token] = append(groups[k.token], k)
	}
	work := make(chan []mixKey)
	errs := make(chan error, 2)
	for range 2 {
		go func() {
			var first error
			for keys := range work {
				if first == nil {
					first = e.prefillSweep(keys)
				}
			}
			errs <- first
		}()
	}
	work <- groups[sweepToken]
	for _, tok := range tokens {
		work <- groups[tok]
	}
	close(work)
	return errors.Join(<-errs, <-errs, cl.stop())
}

func (e *mixEnv) prefillSweep(keys []mixKey) error {
	specs := make([]stash.RunSpec, len(keys))
	for i, k := range keys {
		specs[i] = e.cells[k.cell].spec
	}
	body, err := json.Marshal(serve.SweepRequest{Specs: specs})
	if err != nil {
		return err
	}
	lines, err := e.sweepRequest(keys[0].token, body, len(keys))
	if err != nil {
		return err
	}
	for i, line := range lines {
		if _, err := e.checkFresh(keys[i], line); err != nil {
			return err
		}
	}
	return nil
}

// checkFresh checks a simulated reply against golden and records it as
// the cell's first reply.
func (e *mixEnv) checkFresh(k mixKey, line []byte) (stash.SweepResult, error) {
	var res stash.SweepResult
	if err := json.Unmarshal(line, &res); err != nil {
		return res, err
	}
	if res.Err != nil {
		return res, fmt.Errorf("%s: %v", res.Spec, res.Err)
	}
	if err := e.golden.check(e.cells[k.cell].spec, res.Result); err != nil {
		return res, err
	}
	e.mu.Lock()
	e.first[k] = line
	e.mu.Unlock()
	return res, nil
}

// checkReplay checks that a cache hit replays the cell's first reply
// byte for byte.
func (e *mixEnv) checkReplay(k mixKey, line []byte) error {
	e.mu.Lock()
	want, ok := e.first[k]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("%s in %s: hit before any reply", e.cells[k.cell].spec, k.token)
	}
	if !bytes.Equal(line, want) {
		return fmt.Errorf("%s in %s: replay differs from the first reply", e.cells[k.cell].spec, k.token)
	}
	return nil
}

// get runs one GET /v1/cell and returns its line (without the newline).
func (e *mixEnv) get(base, token, query string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/cell?"+query, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	body, err := e.roundTrip(req)
	if err != nil {
		return nil, err
	}
	line, ok := bytes.CutSuffix(body, []byte("\n"))
	if !ok || bytes.IndexByte(line, '\n') >= 0 {
		return nil, fmt.Errorf("GET %s: want one line, got %d bytes", query, len(body))
	}
	return line, nil
}

// sweepRequest POSTs a sweep through the coordinator and returns its
// NDJSON lines.
func (e *mixEnv) sweepRequest(token string, body []byte, want int) ([][]byte, error) {
	req, err := http.NewRequest(http.MethodPost, coordURL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	out, err := e.roundTrip(req)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSuffix(out, []byte("\n")), []byte("\n"))
	if len(lines) != want {
		return nil, fmt.Errorf("sweep: %d lines, want %d", len(lines), want)
	}
	return lines, nil
}

func (e *mixEnv) roundTrip(req *http.Request) ([]byte, error) {
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// scrape reads /metrics from the coordinator and each shard.
func (e *mixEnv) scrape() ([]map[string]float64, error) {
	var out []map[string]float64
	for _, base := range append([]string{coordURL}, shardURLs...) {
		req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		body, err := e.roundTrip(req)
		if err != nil {
			return nil, err
		}
		m := make(map[string]float64)
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			line := sc.Text()
			i := strings.LastIndexByte(line, ' ')
			if i <= 0 {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				m[line[:i]] = v
			}
		}
		out = append(out, m)
	}
	return out, nil
}

func (e *mixEnv) close() error {
	var err error
	if e.cl != nil {
		err = e.cl.stop()
	}
	e.client.CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(e.dir))
}

// mixSamples is what the clients measure.
type mixSamples struct {
	mu        sync.Mutex
	latMs     [numClasses][]float64
	coldWalls map[string][]float64 // simulation seconds per cell metric
	counts    map[string]float64   // simulator counts of the cold cells
	simNanos  float64
}

// ops counts the requests that completed with a correct reply.
func (s *mixSamples) ops() int {
	n := 0
	for _, l := range s.latMs {
		n += len(l)
	}
	return n
}

// runMix runs the closed loop against a set-up cluster for the run's
// seconds, then audits the shards' counters against the plan.
func runMix(o options) (*report, error) {
	rep := newReport()
	var mt *mixTrace
	clients := mixClients
	if o.tr != nil {
		mt = &mixTrace{tr: o.tr, classes: make(map[int64]class)}
		clients = 1
	}
	rep.clients = clients
	var (
		e      *mixEnv
		setups []float64
	)
	for i := range mixSetups {
		start := time.Now()
		var err error
		if e, err = setupMix(o.out, o.seed, mt.wrapper()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < mixSetups-1 {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
	}
	defer e.close() //nolint:errcheck // the run's outcome is already decided

	owners := make([]int, len(e.cells))
	for i, c := range e.cells {
		owners[i] = c.owner
	}
	plan := newPlanner(o.seed, owners, e.sweepKeys, e.pool, e.cheap)
	samples := &mixSamples{coldWalls: make(map[string][]float64), counts: make(map[string]float64)}

	start := time.Now()
	deadline := start.Add(o.seconds)
	var wg sync.WaitGroup
	attempted, failed := make([]int, clients), make([]int, clients)
	problems := make([][]string, clients)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req := plan.next()
				attempted[c]++
				if err := e.do(req, mt, samples); err != nil {
					failed[c]++
					problems[c] = append(problems[c], fmt.Sprintf("%s request: %v", req.class, err))
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for c := range clients {
		rep.attempted += attempted[c]
		rep.failed += failed[c]
		rep.problems = append(rep.problems, problems[c]...)
	}

	after, err := e.scrape()
	if err != nil {
		return nil, err
	}
	delta := func(node int, name string) float64 { return after[node][name] - e.base[node][name] }
	shards := func(name string) float64 { return delta(1, name) + delta(2, name) }
	counts, evictions := plan.planned()
	e.audit(rep, counts, evictions, shards)

	if err := mixMetrics(rep, samples, setups, elapsed, shards); err != nil {
		return nil, err
	}
	var routed []float64
	for _, s := range shardURLs {
		routed = append(routed, delta(0, fmt.Sprintf("stashd_coord_shard_cells_total{shard=%q}", s)))
	}
	rep.metrics["cluster.route_imbalance"] = slices.Max(routed) / max(slices.Min(routed), 1)
	if mt != nil {
		if err := mt.layerMetrics(rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// do sends one planned request, times it and checks its reply.
func (e *mixEnv) do(r request, mt *mixTrace, s *mixSamples) error {
	id := mt.startRequest(r.class)
	defer mt.endRequest(id)
	start := time.Now()
	var (
		line  []byte
		lines [][]byte
		err   error
	)
	switch r.class {
	case classSweep:
		lines, err = e.sweepRequest(sweepToken, e.sweepBody, len(e.sweepKeys))
	case classPeer:
		line, err = e.get(shardURLs[r.shard], r.key.token, e.cells[r.key.cell].query)
	default:
		line, err = e.get(coordURL, r.key.token, e.cells[r.key.cell].query)
	}
	lat := float64(time.Since(start)) / 1e6
	if err != nil {
		return err
	}
	switch r.class {
	case classSweep:
		for i, l := range lines {
			if err := e.checkReplay(e.sweepKeys[i], l); err != nil {
				return err
			}
		}
	case classCold:
		res, err := e.checkFresh(r.key, line)
		if err != nil {
			return err
		}
		s.mu.Lock()
		name := cellMetric(res.Spec)
		s.coldWalls[name] = append(s.coldWalls[name], res.Wall.Seconds())
		simCounts(s.counts, res.Result)
		s.simNanos += float64(res.Wall)
		s.mu.Unlock()
	default:
		if err := e.checkReplay(r.key, line); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.latMs[r.class] = append(s.latMs[r.class], lat)
	s.mu.Unlock()
	return nil
}

// audit compares the shards' counter deltas with the plan's class
// counts: a mismatch means the mix did not exercise the tiers it meant
// to, and invalidates the run.
func (e *mixEnv) audit(rep *report, n [numClasses]int, evictions int, shards func(string) float64) {
	for _, c := range []struct {
		metric string
		want   int
	}{
		{"stashd_cache_mem_hits_total", n[classMem] + n[classSweep]*len(e.sweepKeys)},
		{"stashd_cache_disk_hits_total", n[classStore] + n[classPeer]},
		{"stashd_cache_remote_fills_total", n[classPeer]},
		{"stashd_cache_remote_misses_total", n[classCold]},
		{"stashd_cache_misses_total", n[classCold]},
		{"stashd_cells_simulated_total", n[classCold]},
		{"stashd_cache_evictions_total", evictions},
		{"stashd_cells_failed_total", 0},
		{"stashd_shed_requests_total", 0},
		{"stashd_bad_requests_total", 0},
	} {
		if got := shards(c.metric); got != float64(c.want) {
			rep.problem("class audit: %s moved by %v, plan says %d (plan: %v)", c.metric, got, c.want, n)
		}
	}
}

// mixMetrics fills the end-to-end metrics and the counter-based layer
// metrics of a stashd-mix run.
func mixMetrics(rep *report, s *mixSamples, setups []float64, elapsed float64, shards func(string) float64) error {
	ops := float64(s.ops())
	sweep50, _, err := percentile(s.latMs[classSweep], 0.5)
	if err != nil {
		return fmt.Errorf("grid_wall_s: %w", err)
	}
	busy := shards("stashd_sim_wall_seconds_total")
	if busy <= 0 {
		return errors.New("sim_cycles_per_s: the run simulated nothing")
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["grid_wall_s"] = sweep50 / 1e3
	rep.metrics["sim_cycles_per_s"] = shards("stashd_sim_cycles_total") / busy
	rep.metrics["ops_per_s"] = ops / elapsed

	hits := append(append(append([]float64(nil), s.latMs[classMem]...), s.latMs[classStore]...), s.latMs[classPeer]...)
	for _, q := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"hit_p50_ms", hits, 0.5}, {"hit_p99_ms", hits, 0.99},
		{"cold_p50_ms", s.latMs[classCold], 0.5}, {"cold_p90_ms", s.latMs[classCold], 0.9},
		{"sweep_p50_ms", s.latMs[classSweep], 0.5}, {"sweep_p90_ms", s.latMs[classSweep], 0.9},
	} {
		if v, n, err := percentile(q.xs, q.p); err != nil {
			rep.extra = append(rep.extra, fmt.Sprintf("%-40s %16s ms (%v)", q.name, "-", err))
		} else {
			rep.extra = append(rep.extra, fmt.Sprintf("%-40s %16.6g ms (n=%d)", q.name, v, n))
		}
	}
	rep.extra = append(rep.extra,
		fmt.Sprintf("%-40s %16.6g 1/s", "req_per_s", ops/elapsed),
		fmt.Sprintf("%-40s %16.6g ratio", "error_ratio", float64(rep.failed)/float64(max(rep.attempted, 1))))
	for c := range numClasses {
		rep.extra = append(rep.extra, fmt.Sprintf("%-40s %16d count", "requests."+c.String(), len(s.latMs[c])))
	}

	for name, v := range s.counts {
		rep.metrics[name] = v
	}
	for name, w := range s.coldWalls {
		rep.metrics[name] = median(w)
	}
	finishSimCounts(rep.metrics, s.simNanos)
	hitsN, missN := shards("stashd_cache_hits_total"), shards("stashd_cache_misses_total")
	for name, metric := range map[string]string{
		"cellcache.mem_hits":      "stashd_cache_mem_hits_total",
		"cellcache.store_hits":    "stashd_cache_disk_hits_total",
		"cellcache.remote_fills":  "stashd_cache_remote_fills_total",
		"cellcache.remote_misses": "stashd_cache_remote_misses_total",
		"cellcache.misses":        "stashd_cache_misses_total",
		"cellcache.mem_evictions": "stashd_cache_evictions_total",
		"serve.cells_simulated":   "stashd_cells_simulated_total",
		"serve.sim_busy_s":        "stashd_sim_wall_seconds_total",
		"serve.shed":              "stashd_shed_requests_total",
	} {
		rep.metrics[name] = shards(metric)
	}
	rep.metrics["cellcache.hit_ratio"] = hitsN / max(hitsN+missN, 1)
	return nil
}

// mixTrace attributes spans recorded by the handler wrappers to the one
// client request in flight (traced runs use a single client).
type mixTrace struct {
	tr      *tracer
	mu      sync.Mutex
	seq     int64   // requests started
	req     int64   // the request in flight, 0 between requests
	client  int64   // its client span
	coord   int64   // its open coordinator span
	shards  []int64 // its open shard spans, in start order
	classes map[int64]class
}

// wrapper returns the handler wrapper for startCluster (nil untraced).
func (m *mixTrace) wrapper() func(string, http.Handler) http.Handler {
	if m == nil {
		return nil
	}
	return m.wrap
}

func (m *mixTrace) wrap(role string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		if m.req == 0 { // set-up traffic and scrapes are not traced
			m.mu.Unlock()
			h.ServeHTTP(w, r)
			return
		}
		var id int64
		switch {
		case role == "coord":
			id = m.tr.begin("coord.handler", m.client, m.req)
			m.coord = id
		case r.URL.Path == "/v1/cellframe":
			parent := m.client
			if len(m.shards) > 0 {
				parent = m.shards[len(m.shards)-1]
			}
			id = m.tr.begin("cellframe.handler", parent, m.req)
		default:
			parent := m.client
			if m.coord != 0 {
				parent = m.coord
			}
			id = m.tr.begin("shard.handler", parent, m.req)
			m.shards = append(m.shards, id)
		}
		m.mu.Unlock()
		h.ServeHTTP(w, r)
		m.tr.end(id)
		m.mu.Lock()
		if id == m.coord {
			m.coord = 0
		}
		if i := slices.Index(m.shards, id); i >= 0 {
			m.shards = slices.Delete(m.shards, i, i+1)
		}
		m.mu.Unlock()
	})
}

// startRequest opens the client span of a request and makes it the one
// in flight.
func (m *mixTrace) startRequest(c class) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	m.req = m.seq
	m.classes[m.req] = c
	m.client = m.tr.begin("client."+c.String(), 0, m.req)
	return m.client
}

func (m *mixTrace) endRequest(id int64) {
	if m == nil {
		return
	}
	m.tr.end(id)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.req, m.client, m.coord, m.shards = 0, 0, 0, nil
}

// layerMetrics derives the serve and cluster span metrics: shard
// handler time by request class, peer-fetch handler time, and the
// coordinator's self time (its span minus the shard spans under it).
func (m *mixTrace) layerMetrics(rep *report) error {
	spans := m.tr.finished()
	self := selfTimes(spans)
	var (
		shard      [numClasses][]float64
		frame, own []float64
	)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range spans {
		switch s.Name {
		case "shard.handler":
			c := m.classes[s.Req]
			shard[c] = append(shard[c], float64(s.dur())/1e6)
		case "cellframe.handler":
			frame = append(frame, float64(s.dur())/1e6)
		case "coord.handler":
			own = append(own, float64(self[s.ID])/1e6)
		}
	}
	for _, q := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"serve.shard_mem_ms_p50", shard[classMem], 0.5},
		{"serve.shard_store_ms_p50", shard[classStore], 0.5},
		{"serve.shard_peer_ms_p50", shard[classPeer], 0.5},
		{"serve.cellframe_ms_p50", frame, 0.5},
		{"cluster.coord_self_ms_p50", own, 0.5},
		{"cluster.coord_self_ms_p99", own, 0.99},
	} {
		v, _, err := percentile(q.xs, q.p)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		rep.metrics[q.name] = v
	}
	return nil
}
