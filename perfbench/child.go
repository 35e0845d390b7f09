package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/cluster"
	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/experiments"
	"github.com/snails-bench/snails/internal/llm"
	"github.com/snails-bench/snails/internal/server"
	"github.com/snails-bench/snails/internal/sqlexec"
	"github.com/snails-bench/snails/internal/trace"
)

// A child is one fresh process measuring one piece of a workload. It writes
// "ready" on its standard output the moment set-up is done (the parent
// times set-up up to that line), then one JSON childResult line.
type childArgs struct {
	mode    string // sweep-cold, serve-cold, serve-hot, cluster-hot or layers
	seed    int64
	seconds float64 // the timed window of a hot child
	traced  bool
	replay  string // layers only: "", "grid" or "cold" (the serve-cold order)
}

// childResult is what one child measured.
type childResult struct {
	Units  int     `json:"units"` // cells of a sweep, requests of a serving child
	Cells  int     `json:"cells"` // grid cells answered
	Failed int     `json:"failed"`
	TimedS float64 `json:"timed_s"`
	// Clients is the closed-loop client count (the sweep's worker count).
	Clients int       `json:"clients"`
	LatMS   []float64 `json:"lat_ms,omitempty"` // successes only
	RSSMB   float64   `json:"rss_mb"`

	Trace  *tracedRaw  `json:"trace,omitempty"`
	Layers *layersRaw  `json:"layers,omitempty"`
	Replay *replayRaw  `json:"replay,omitempty"`
	Errors []string    `json:"errors,omitempty"`
	Shards map[int]int `json:"shards,omitempty"`
}

// tracedRaw is what the traced child's wrappers and probes recorded inside
// the timed window.
type tracedRaw struct {
	SelfNS        [numLayers]int64 `json:"self_ns"`
	Calls         [numLayers]int   `json:"calls"`
	BackendNS     int64            `json:"backend_ns"` // every backend span, matched or not
	BackendCalls  int              `json:"backend_calls"`
	BackendErrors int              `json:"backend_errors"`
	ExecCalls     uint64           `json:"exec_calls"`
	ExecFailures  uint64           `json:"exec_failures"`
	CacheHits     int              `json:"cache_hits"`
	CacheLookups  int              `json:"cache_lookups"`
	Batches       float64          `json:"batches"`
	Batched       float64          `json:"batched"`
}

const maxLoggedErrors = 5

func nproc() int { return runtime.NumCPU() }

func runChild(a childArgs, out io.Writer) error {
	var (
		res *childResult
		err error
	)
	switch a.mode {
	case "sweep-cold":
		res, err = childSweep(a, out)
	case "serve-cold", "serve-hot", "cluster-hot":
		res, err = childServe(a, out)
	case "layers":
		res, err = childLayers(a, out)
	default:
		err = fmt.Errorf("unknown child mode %q", a.mode)
	}
	if err != nil {
		return err
	}
	res.RSSMB = peakRSSMB()
	return json.NewEncoder(out).Encode(res)
}

// ready ends set-up. It first collects the set-up garbage and returns it to
// the operating system, so every timed phase starts from the same heap
// state whatever the garbage collector's timing during set-up. It then
// resets the process's peak resident set size to the current one, so that
// rss_peak_mb is the timed phase's peak and not set-up's.
func ready(out io.Writer) error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set size: %w", err)
	}
	fmt.Fprintln(out, "ready")
	return nil
}

func synthetics() []backend.Backend {
	var bes []backend.Backend
	for _, p := range llm.Profiles() {
		bes = append(bes, backend.NewSynthetic(p))
	}
	return bes
}

// seedIndex maps each cell's decode seed to its grid index.
func seedIndex(keys []gridKey) (map[uint64]int, error) {
	m := make(map[uint64]int, len(keys))
	for i, k := range keys {
		s := k.seed()
		if _, dup := m[s]; dup {
			return nil, fmt.Errorf("two grid cells share decode seed %#x", s)
		}
		m[s] = i
	}
	return m, nil
}

// childSweep runs the full grid once through experiments.RunSweep with empty
// memos. Each cell's latency is the time from its backend call to the next
// cell's backend call in the same (database, question) job: a job runs its
// cells in order on one worker, so that is the cell's whole service time.
// The last cell of each job has no successor and gives no sample.
func childSweep(a childArgs, out io.Writer) (*childResult, error) {
	dbs := datasets.All()
	keys := gridKeys()
	idx, err := seedIndex(keys)
	if err != nil {
		return nil, err
	}
	probe := &backendProbe{cellOf: idx, cellStart: make([]int64, len(keys)), base: time.Now()}
	if a.traced {
		probe.rec = newRecorder()
	}
	bes := probe.wrap(synthetics())
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	if err := ready(out); err != nil {
		return nil, err
	}

	before := sqlexec.Stats()
	if probe.rec != nil {
		probe.rec.on.Store(true)
	}
	start := time.Now()
	sw := experiments.RunSweep(dbs, experiments.Options{Workers: nproc(), Backends: bes})
	wall := time.Since(start)
	after := sqlexec.Stats()

	res := &childResult{Units: len(sw.Cells), Cells: len(sw.Cells), TimedS: wall.Seconds(), Clients: nproc()}
	digest, err := sweepDigest(sw.WriteCells)
	if err != nil {
		return nil, err
	}
	if len(sw.Cells) != len(keys) || digest != refs.sweep {
		res.Failed = len(sw.Cells)
		res.Errors = append(res.Errors, fmt.Sprintf("sweep cell dump digest %s, want %s", digest, refs.sweep))
	}
	for i := 0; i+1 < len(keys); i++ {
		if keys[i].db == keys[i+1].db && keys[i].qid == keys[i+1].qid {
			res.LatMS = append(res.LatMS, float64(probe.cellStart[i+1]-probe.cellStart[i])/1e6)
		}
	}
	if probe.rec != nil {
		tr := &tracedRaw{BackendErrors: int(probe.errors.Load())}
		for _, s := range probe.rec.take() {
			tr.BackendNS += s.end - s.start
			tr.BackendCalls++
		}
		tr.ExecCalls = after.Queries - before.Queries
		tr.ExecFailures = (after.ParseFailures + after.ExecFailures) - (before.ParseFailures + before.ExecFailures)
		res.Trace = tr
	}
	return res, nil
}

// endpoint is one HTTP server the child runs on loopback.
type endpoint struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		e.srv.Serve(ln) // returns http.ErrServerClosed once close is called
	}()
	return e, nil
}

func (e *endpoint) close() {
	e.srv.Close()
	<-e.done
}

// topology is the serving stack a serving child drives: one server, or a
// router in front of two shards.
type topology struct {
	front   string   // URL the clients send to
	metrics []string // URLs of each server's /metrics
	stop    func()
}

func startTopology(mode string, rec *recorder, probe *backendProbe) (*topology, error) {
	wrap := func(h http.Handler, l layer) http.Handler {
		if rec == nil {
			return h
		}
		return timedHandler{h: h, rec: rec, layer: l}
	}
	var backends func() []backend.Backend
	if probe != nil {
		backends = func() []backend.Backend { return probe.wrap(synthetics()) }
	} else {
		backends = func() []backend.Backend { return nil } // the server's own lazily built backends
	}
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	startServer := func(cfg server.Config) (*endpoint, error) {
		cfg.Backends = backends()
		s := server.New(cfg)
		s.Preload()
		e, err := listen(wrap(s, layerServer))
		if err != nil {
			return nil, err
		}
		stops = append(stops, func() {
			s.BeginShutdown()
			e.close()
			s.Drain()
		})
		return e, nil
	}

	if mode != "cluster-hot" {
		e, err := startServer(server.Config{})
		if err != nil {
			stopAll()
			return nil, err
		}
		return &topology{front: e.url, metrics: []string{e.url + "/metrics"}, stop: stopAll}, nil
	}

	t := &topology{}
	var shards []cluster.Shard
	for i := 0; i < 2; i++ {
		name := "shard-" + strconv.Itoa(i)
		e, err := startServer(server.Config{ShardID: name})
		if err != nil {
			stopAll()
			return nil, err
		}
		shards = append(shards, cluster.Shard{Name: name, Base: e.url})
		t.metrics = append(t.metrics, e.url+"/metrics")
	}
	rt, err := cluster.NewRouter(cluster.Config{Shards: shards, Universe: cluster.DefaultUniverse()})
	if err != nil {
		stopAll()
		return nil, err
	}
	stops = append(stops, rt.Close)
	for deadline := time.Now().Add(10 * time.Second); rt.AliveShards() < len(shards); {
		if time.Now().After(deadline) {
			stopAll()
			return nil, errors.New("cluster shards did not become healthy within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	e, err := listen(wrap(rt, layerRouter))
	if err != nil {
		stopAll()
		return nil, err
	}
	stops = append(stops, func() {
		rt.BeginShutdown()
		e.close()
	})
	t.front, t.stop = e.url, stopAll
	return t, nil
}

func newClient(clients int) *http.Client {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxIdleConns = clients
	tp.MaxIdleConnsPerHost = clients
	return &http.Client{Transport: tp, Timeout: 30 * time.Second}
}

// loadOutcome is what the closed-loop clients observed.
type loadOutcome struct {
	sent, failed, cells int
	hits, lookups       int
	shards              map[int]int
	latMS               []float64
	errs                []string
	window              time.Duration
}

// drive runs `clients` closed-loop clients over the stream: each sends its
// next request only when the previous response has been read and checked.
// With a zero deadline every request is sent once; otherwise the clients walk
// the stream round and round until the deadline. The n-th request sent has
// id n; a traced run sends it as the wire trace id and files the request's
// cell seed under it in probe.inflight.
func drive(c *http.Client, base string, stream []request, want []uint32, clients int, deadline time.Time,
	rec *recorder, probe *backendProbe) loadOutcome {
	var (
		wg  sync.WaitGroup
		pos atomic.Int64
		mu  sync.Mutex
		all = loadOutcome{shards: map[int]int{}}
	)
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var o loadOutcome
			o.shards = map[int]int{}
			for {
				i := int(pos.Add(1) - 1)
				if deadline.IsZero() {
					if i >= len(stream) {
						break
					}
				} else if time.Now().After(deadline) {
					break
				}
				r := stream[i%len(stream)]
				id := uint64(i) + 1
				req, err := http.NewRequest(http.MethodPost, base+r.path, strings.NewReader(r.body))
				if err != nil {
					o.fail(fmt.Sprintf("%s: %v", r.path, err))
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				if rec != nil {
					trace.Inject(req.Header, id)
					if r.seed != 0 {
						probe.inflight.Store(r.seed, id)
					}
				}
				t0, s0 := time.Now(), rec.now()
				resp, err := c.Do(req)
				var body []byte
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				lat := time.Since(t0)
				rec.add(span{req: id, layer: layerClient, start: s0, end: rec.now()})
				o.sent++
				if r.path == "/v1/infer" {
					o.cells++
				}
				switch {
				case err != nil:
					o.fail(fmt.Sprintf("%s %s: %v", r.path, r.body, err))
					continue
				case resp.StatusCode != http.StatusOK:
					o.fail(fmt.Sprintf("%s %s: HTTP %d", r.path, r.body, resp.StatusCode))
					continue
				case bodyDigest(body) != want[r.ref]:
					o.fail(fmt.Sprintf("%s %s: body digest %08x, want %08x", r.path, r.body, bodyDigest(body), want[r.ref]))
					continue
				}
				o.latMS = append(o.latMS, float64(lat)/1e6)
				if v := resp.Header.Get("X-Snails-Cache"); v != "" {
					o.lookups++
					if v == "hit" {
						o.hits++
					}
				}
				if s := resp.Header.Get("X-Snails-Shard"); s != "" {
					n, _ := strconv.Atoi(strings.TrimPrefix(s, "shard-"))
					o.shards[n]++
				}
			}
			mu.Lock()
			all.sent += o.sent
			all.failed += o.failed
			all.cells += o.cells
			all.hits += o.hits
			all.lookups += o.lookups
			all.latMS = append(all.latMS, o.latMS...)
			for k, v := range o.shards {
				all.shards[k] += v
			}
			for _, e := range o.errs {
				if len(all.errs) < maxLoggedErrors {
					all.errs = append(all.errs, e)
				}
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	all.window = time.Since(start)
	return all
}

func (o *loadOutcome) fail(msg string) {
	o.failed++
	if len(o.errs) < maxLoggedErrors {
		o.errs = append(o.errs, msg)
	}
}

// childServe measures one serving workload in this process: serve-cold
// sends every grid cell once; serve-hot and cluster-hot warm the response
// cache with each distinct request of the hot mix (part of set-up), then
// loop over the seed-ordered mix for the timed window.
func childServe(a childArgs, out io.Writer) (*childResult, error) {
	keys := gridKeys()
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	var (
		rec   *recorder
		probe *backendProbe
	)
	if a.traced {
		rec = newRecorder()
		probe = &backendProbe{rec: rec}
	}
	topo, err := startTopology(a.mode, rec, probe)
	if err != nil {
		return nil, err
	}
	defer topo.stop()
	clients := nproc()
	client := newClient(clients)
	defer client.CloseIdleConnections()

	var (
		stream   []request
		want     []uint32
		deadline time.Time
	)
	if a.mode == "serve-cold" {
		stream, want = coldStream(keys, a.seed), refs.grid
	} else {
		want = refs.hot
		warm := drive(client, topo.front, hotKeys(), want, 1, time.Time{}, nil, nil)
		if warm.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", warm.failed, warm.sent, warm.errs)
		}
		stream = hotStream(a.seed)
	}

	batches0, batched0, err := scrapeBatches(client, topo.metrics)
	if err != nil {
		return nil, err
	}
	before := sqlexec.Stats()
	if err := ready(out); err != nil {
		return nil, err
	}
	if a.mode != "serve-cold" {
		deadline = time.Now().Add(time.Duration(a.seconds * float64(time.Second)))
	}
	if rec != nil {
		rec.on.Store(true)
	}
	o := drive(client, topo.front, stream, want, clients, deadline, rec, probe)
	if rec != nil {
		rec.on.Store(false)
	}
	after := sqlexec.Stats()

	res := &childResult{Units: o.sent, Cells: o.cells, Failed: o.failed, TimedS: o.window.Seconds(),
		Clients: clients, LatMS: o.latMS, Errors: o.errs, Shards: o.shards}
	if rec == nil {
		return res, nil
	}
	batches1, batched1, err := scrapeBatches(client, topo.metrics)
	if err != nil {
		return nil, err
	}
	spans := rec.take()
	tot := totalsByRequest(spans)
	tr := &tracedRaw{SelfNS: tot.self, Calls: tot.calls, BackendErrors: int(probe.errors.Load()),
		ExecCalls:    after.Queries - before.Queries,
		ExecFailures: (after.ParseFailures + after.ExecFailures) - (before.ParseFailures + before.ExecFailures),
		CacheHits:    o.hits, CacheLookups: o.lookups,
		Batches: batches1 - batches0, Batched: batched1 - batched0}
	for _, s := range spans {
		if s.layer == layerBackend {
			tr.BackendNS += s.end - s.start
			tr.BackendCalls++
		}
	}
	res.Trace = tr
	return res, nil
}

// scrapeBatches sums the micro-batcher's flushed batch and request counters
// over every server's /metrics.
func scrapeBatches(c *http.Client, urls []string) (batches, batched float64, err error) {
	for _, u := range urls {
		resp, err := c.Get(u)
		if err != nil {
			return 0, 0, fmt.Errorf("scraping %s: %w", u, err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok {
				continue
			}
			v, perr := strconv.ParseFloat(val, 64)
			switch {
			case perr != nil:
			case name == "snails_batches_total":
				batches += v
			case name == "snails_batched_requests_total":
				batched += v
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("scraping %s: %w", u, err)
		}
	}
	return batches, batched, nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// referenceOutputs computes the reference digests from the program as it
// is: the sweep's cell dump, each grid cell's /v1/infer body and each
// distinct body of the hot mix, the latter two sent one at a time to a fresh
// server.
func referenceOutputs() (sweep, grid, hot string, err error) {
	sw := experiments.RunSweep(datasets.All(), experiments.Options{Workers: nproc()})
	if sweep, err = sweepDigest(sw.WriteCells); err != nil {
		return "", "", "", err
	}
	topo, err := startTopology("serve-cold", nil, nil)
	if err != nil {
		return "", "", "", err
	}
	defer topo.stop()
	c := newClient(1)
	defer c.CloseIdleConnections()
	fetch := func(r request) (uint32, error) {
		resp, err := c.Post(topo.front+r.path, "application/json", strings.NewReader(r.body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("%s %s: HTTP %d: %s", r.path, r.body, resp.StatusCode, body)
		}
		return bodyDigest(body), nil
	}
	var g, h strings.Builder
	for _, k := range gridKeys() {
		d, err := fetch(request{path: "/v1/infer", body: k.body()})
		if err != nil {
			return "", "", "", err
		}
		fmt.Fprintf(&g, "%08x\n", d)
	}
	for _, r := range hotKeys() {
		d, err := fetch(r)
		if err != nil {
			return "", "", "", err
		}
		fmt.Fprintf(&h, "%08x\t%s\t%s\n", d, r.path, r.body)
	}
	return sweep, g.String(), h.String(), nil
}
