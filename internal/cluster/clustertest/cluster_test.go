package clustertest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snails-bench/snails/internal/cluster"
	"github.com/snails-bench/snails/internal/server"
	"github.com/snails-bench/snails/internal/trace"
)

// reqSpec is one request in a replayable stream.
type reqSpec struct {
	path string
	body string
}

// testStream is a deterministic request mix across databases, variants, and
// endpoints — enough spread to land on every shard of a small cluster.
func testStream() []reqSpec {
	var out []reqSpec
	for _, db := range []string{"ASIS", "NTSB", "CWO", "PILB"} {
		for _, variant := range []string{"native", "regular", "low"} {
			for qid := 1; qid <= 2; qid++ {
				out = append(out, reqSpec{"/v1/infer", fmt.Sprintf(
					`{"db":%q,"model":"gpt-4o","variant":%q,"question_id":%d}`, db, variant, qid)})
			}
		}
	}
	out = append(out,
		reqSpec{"/v1/classify", `{"identifiers":["vegetation_height","tbl_emp","xqz"]}`},
		reqSpec{"/v1/modify", `{"op":"expand","identifier":"veg_hght"}`},
		reqSpec{"/v1/link", `{"gold_sql":"SELECT a FROM t","pred_sql":"SELECT a FROM t"}`},
	)
	return out
}

// soloResponses replays the stream against a fresh single-process server and
// returns status + body per request — the reference a cluster must match
// byte-for-byte.
func soloResponses(cfg server.Config, stream []reqSpec) []*httptest.ResponseRecorder {
	s := server.New(cfg)
	defer s.Drain()
	out := make([]*httptest.ResponseRecorder, len(stream))
	for i, spec := range stream {
		req := httptest.NewRequest(http.MethodPost, spec.path, strings.NewReader(spec.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		out[i] = rec
	}
	return out
}

// post sends one stream request through the cluster router.
func post(t *testing.T, client *http.Client, base string, spec reqSpec) (int, []byte, string) {
	t.Helper()
	resp, err := client.Post(base+spec.path, "application/json", strings.NewReader(spec.body))
	if err != nil {
		t.Fatalf("POST %s: %v", spec.path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s response: %v", spec.path, err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Snails-Shard")
}

// clusterMetricsz pulls and decodes the router's aggregated /metricsz.
func clusterMetricsz(t *testing.T, client *http.Client, base string) cluster.ClusterMetricsz {
	t.Helper()
	resp, err := client.Get(base + "/metricsz")
	if err != nil {
		t.Fatalf("GET /metricsz: %v", err)
	}
	defer resp.Body.Close()
	var doc cluster.ClusterMetricsz
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode /metricsz: %v", err)
	}
	return doc
}

func startCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	c, err := Start(opts)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	t.Cleanup(c.Stop)
	return c
}

// TestClusterByteIdentity: the same request stream against one process and
// a 2-shard cluster yields identical status codes and byte-identical bodies;
// the only cluster-visible difference is the X-Snails-Shard header.
func TestClusterByteIdentity(t *testing.T) {
	stream := testStream()
	solo := soloResponses(server.Config{}, stream)
	c := startCluster(t, Options{Shards: 2, Preload: true})
	client := &http.Client{Timeout: 30 * time.Second}

	shardsSeen := map[string]bool{}
	for i, spec := range stream {
		status, body, shard := post(t, client, c.RouterURL, spec)
		if status != solo[i].Code {
			t.Fatalf("request %d (%s %s): cluster status %d, solo %d",
				i, spec.path, spec.body, status, solo[i].Code)
		}
		if !bytes.Equal(body, solo[i].Body.Bytes()) {
			t.Fatalf("request %d (%s %s): cluster body differs from solo\ncluster: %s\nsolo:    %s",
				i, spec.path, spec.body, body, solo[i].Body.Bytes())
		}
		if shard == "" {
			t.Fatalf("request %d: cluster response missing X-Snails-Shard header", i)
		}
		shardsSeen[shard] = true
	}
	if len(shardsSeen) < 2 {
		t.Errorf("stream touched shards %v, want both shards of the cluster", shardsSeen)
	}
}

// TestKillShardUnderLoad: SIGKILL-ing a shard mid-load produces zero wrong
// answers and zero client-visible errors — the router re-hashes every
// affected request onto the surviving shard within the retry budget.
func TestKillShardUnderLoad(t *testing.T) {
	stream := testStream()
	solo := soloResponses(server.Config{}, stream)
	c := startCluster(t, Options{Shards: 2, Preload: true})

	const clients = 4
	const perClient = 40
	killAt := int64(clients * perClient / 4)

	var sent atomic.Int64
	var killOnce sync.Once
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := 0; i < perClient; i++ {
				n := sent.Add(1)
				if n == killAt {
					killOnce.Do(func() { c.KillShard(0) })
				}
				idx := (w*perClient + i) % len(stream)
				spec := stream[idx]
				resp, err := client.Post(c.RouterURL+spec.path, "application/json", strings.NewReader(spec.body))
				if err != nil {
					errs <- fmt.Errorf("client %d request %d: %v", w, i, err)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != solo[idx].Code {
					errs <- fmt.Errorf("client %d request %d (%s): status %d, want %d (body %s)",
						w, i, spec.path, resp.StatusCode, solo[idx].Code, body)
					continue
				}
				if !bytes.Equal(body, solo[idx].Body.Bytes()) {
					errs <- fmt.Errorf("client %d request %d (%s): wrong answer\ngot:  %s\nwant: %s",
						w, i, spec.path, body, solo[idx].Body.Bytes())
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := clusterMetricsz(t, &http.Client{Timeout: 10 * time.Second}, c.RouterURL)
	if snap.Router.AliveShards != 1 {
		t.Errorf("alive shards after kill = %d, want 1", snap.Router.AliveShards)
	}
	if snap.Router.RetriesTotal == 0 {
		t.Errorf("router reports zero retries despite a shard dying under load")
	}
}

// TestDrainFinishesInflight: draining a shard lets its in-flight and queued
// requests finish — every request issued before the drain completes with the
// correct body — and the router routes around it afterwards.
func TestDrainFinishesInflight(t *testing.T) {
	stream := testStream()
	cfg := server.Config{Workers: 1}
	solo := soloResponses(cfg, stream)
	c := startCluster(t, Options{Shards: 2, Preload: true, ShardConfig: cfg})

	// Fire a wave of requests; with one worker per shard most of them sit
	// in shard queues when the drain starts.
	var wg sync.WaitGroup
	type result struct {
		idx    int
		status int
		body   []byte
	}
	results := make(chan result, len(stream))
	for i, spec := range stream {
		wg.Add(1)
		go func(i int, spec reqSpec) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			resp, err := client.Post(c.RouterURL+spec.path, "application/json", strings.NewReader(spec.body))
			if err != nil {
				results <- result{idx: i, status: -1}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results <- result{i, resp.StatusCode, body}
		}(i, spec)
	}
	time.Sleep(10 * time.Millisecond)
	if err := c.DrainShard(0, 10*time.Second); err != nil {
		t.Errorf("drain did not finish in-flight work within grace: %v", err)
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.status != solo[r.idx].Code {
			t.Errorf("request %d: status %d, want %d (body %s)", r.idx, r.status, solo[r.idx].Code, r.body)
			continue
		}
		if !bytes.Equal(r.body, solo[r.idx].Body.Bytes()) {
			t.Errorf("request %d: wrong answer after drain\ngot:  %s\nwant: %s", r.idx, r.body, solo[r.idx].Body.Bytes())
		}
	}

	// The drained shard is out of rotation; traffic keeps flowing.
	if err := c.WaitAlive(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	for _, spec := range stream[:6] {
		status, _, shard := post(t, client, c.RouterURL, spec)
		if status != http.StatusOK {
			t.Errorf("post-drain request to %s: status %d, want 200", spec.path, status)
		}
		if shard == "shard-0" {
			t.Errorf("post-drain request routed to drained shard 0")
		}
	}
}

// TestRestartRejoinsAndRewarms: a killed shard restarted on the same address
// rejoins the ring and re-warms its memo caches — the aggregated /metricsz
// hit counters recover once the stream replays.
func TestRestartRejoinsAndRewarms(t *testing.T) {
	stream := testStream()
	c := startCluster(t, Options{Shards: 2, Preload: true})
	client := &http.Client{Timeout: 30 * time.Second}

	replay := func() {
		for _, spec := range stream {
			status, _, _ := post(t, client, c.RouterURL, spec)
			if status != http.StatusOK {
				t.Fatalf("replay request %s: status %d", spec.path, status)
			}
		}
	}

	// Warm both shards, then verify the stream is fully cached.
	replay()
	before := clusterMetricsz(t, client, c.RouterURL)
	replay()
	warm := clusterMetricsz(t, client, c.RouterURL)
	if got := warm.CacheHits - before.CacheHits; got < uint64(len(stream)) {
		t.Fatalf("warm replay hit cache %d times, want >= %d", got, len(stream))
	}

	c.KillShard(0)
	if err := c.WaitAlive(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartShard(0); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitAlive(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// First replay re-warms the restarted shard's empty caches (its share of
	// the stream misses); the next replay must be fully hot again.
	replay()
	rewarmed := clusterMetricsz(t, client, c.RouterURL)
	replay()
	hot := clusterMetricsz(t, client, c.RouterURL)
	if got := hot.CacheHits - rewarmed.CacheHits; got < uint64(len(stream)) {
		t.Fatalf("post-restart replay hit cache %d times, want >= %d — restarted shard did not re-warm", got, len(stream))
	}

	// Both shards are serving again.
	shardsSeen := map[string]bool{}
	for _, spec := range stream {
		_, _, shard := post(t, client, c.RouterURL, spec)
		shardsSeen[shard] = true
	}
	if !shardsSeen["shard-0"] {
		t.Errorf("restarted shard 0 receives no traffic after rejoin (saw %v)", shardsSeen)
	}
}

// TestProbeFaults: dropped probes take a healthy shard out of rotation
// without dropping client traffic; probes slower than the timeout read as
// down; recovery is automatic when the fault clears.
func TestProbeFaults(t *testing.T) {
	stream := testStream()
	c := startCluster(t, Options{Shards: 2, Preload: true})
	client := &http.Client{Timeout: 30 * time.Second}

	c.DropProbes(1, true)
	if err := c.WaitAlive(1, 5*time.Second); err != nil {
		t.Fatalf("dropped probes did not mark the shard down: %v", err)
	}
	for _, spec := range stream[:8] {
		status, _, shard := post(t, client, c.RouterURL, spec)
		if status != http.StatusOK {
			t.Errorf("request during probe outage: status %d, want 200", status)
		}
		if shard == "shard-1" {
			t.Errorf("request routed to shard with failing probes")
		}
	}
	c.DropProbes(1, false)
	if err := c.WaitAlive(2, 10*time.Second); err != nil {
		t.Fatalf("shard did not recover after probes resumed: %v", err)
	}

	// Probes slower than the probe timeout are failures too.
	c.SlowProbes(1, 2*time.Second)
	if err := c.WaitAlive(1, 10*time.Second); err != nil {
		t.Fatalf("slow probes did not mark the shard down: %v", err)
	}
	c.SlowProbes(1, 0)
	if err := c.WaitAlive(2, 10*time.Second); err != nil {
		t.Fatalf("shard did not recover after slow probes cleared: %v", err)
	}
}

// TestAggregatedMetrics: the router's /metrics merges shard expositions
// under shard="<name>" labels alongside its own families, and /metricsz
// sums shard counters so the cluster reads like one process.
func TestAggregatedMetrics(t *testing.T) {
	stream := testStream()
	c := startCluster(t, Options{Shards: 2, Preload: true})
	client := &http.Client{Timeout: 30 * time.Second}
	for _, spec := range stream {
		post(t, client, c.RouterURL, spec)
	}

	snap := clusterMetricsz(t, client, c.RouterURL)
	if snap.RequestsTotal != uint64(len(stream)) {
		t.Errorf("aggregated requests_total = %d, want %d", snap.RequestsTotal, len(stream))
	}
	if snap.Router.RequestsTotal != uint64(len(stream)) {
		t.Errorf("router requests_total = %d, want %d", snap.Router.RequestsTotal, len(stream))
	}
	if len(snap.ShardHealth) != 2 {
		t.Fatalf("shard_health has %d entries, want 2", len(snap.ShardHealth))
	}
	var shardReqs uint64
	for _, sh := range snap.ShardHealth {
		if !sh.Alive {
			t.Errorf("shard %s not alive in healthy cluster", sh.Name)
		}
		shardReqs += sh.Requests
	}
	if shardReqs != uint64(len(stream)) {
		t.Errorf("per-shard routed requests sum to %d, want %d", shardReqs, len(stream))
	}

	resp, err := client.Get(c.RouterURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"snails_router_requests_total",
		`shard="shard-0"`,
		`shard="shard-1"`,
		"snails_http_requests_total{",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("aggregated /metrics missing %q", want)
		}
	}
}

// slowTransport delays every forwarded round trip, honoring cancellation —
// the stand-in for a shard that answers, but slower than the client can wait.
type slowTransport struct {
	base  http.RoundTripper
	delay time.Duration
}

func (s slowTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	select {
	case <-time.After(s.delay):
	case <-r.Context().Done():
		return nil, r.Context().Err()
	}
	return s.base.RoundTrip(r)
}

// TestRelayDeadlinePropagation is the regression test for the hardcoded 5s
// relay timeout: the aggregation endpoints used to fan out under their own
// fixed 5s context no matter what the client could wait, so a client with a
// 150ms budget hung for the full shard latency. With the deadline header the
// router must answer 504 within the client's budget — well before the slow
// shard would have answered and far before the relay cap — while a generous
// budget still rides the slowness out to a 200.
func TestRelayDeadlinePropagation(t *testing.T) {
	const shardDelay = time.Second
	c := startCluster(t, Options{
		Shards: 1,
		Router: cluster.Config{Transport: slowTransport{base: http.DefaultTransport, delay: shardDelay}},
	})
	client := &http.Client{Timeout: 30 * time.Second}

	get := func(path, budgetMs string) (int, []byte, time.Duration) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, c.RouterURL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if budgetMs != "" {
			req.Header.Set(cluster.DeadlineHeader, budgetMs)
		}
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body, time.Since(start)
	}

	// 150ms budget against a 1s shard: 504 before the shard answers.
	status, body, elapsed := get("/metricsz", "150")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("/metricsz under short deadline = %d, want 504: %s", status, body)
	}
	if !strings.Contains(string(body), "timeout") {
		t.Errorf("504 body should carry the timeout code: %s", body)
	}
	if elapsed >= shardDelay {
		t.Errorf("504 arrived after %v — the router waited out the slow shard instead of honoring the 150ms budget", elapsed)
	}

	// Same budget on the trace fan-out: 504, not the misleading
	// "tracing_disabled" 404 an empty timed-out sweep used to imply.
	if status, body, _ := get("/debugz/traces", "150"); status != http.StatusGatewayTimeout {
		t.Fatalf("/debugz/traces under short deadline = %d, want 504: %s", status, body)
	}

	// A budget beyond the shard latency behaves as before.
	if status, body, _ := get("/metricsz", "10000"); status != http.StatusOK {
		t.Fatalf("/metricsz under generous deadline = %d, want 200: %s", status, body)
	}
}

// postTraced sends one request and returns the response plus its wire trace
// ID (the X-Snails-Trace header the shard echoes through the router).
func postTraced(t *testing.T, client *http.Client, base string, spec reqSpec) (*http.Response, []byte, string) {
	t.Helper()
	resp, err := client.Post(base+spec.path, "application/json", strings.NewReader(spec.body))
	if err != nil {
		t.Fatalf("POST %s: %v", spec.path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s response: %v", spec.path, err)
	}
	return resp, body, resp.Header.Get(trace.Header)
}

// stitchedTrace polls the router's /debugz/traces?id= until the stitched
// document holds views from both a router and at least one shard (the
// router's deferred Finish races the client's read of the response), or the
// timeout expires — returning whatever was last fetched either way.
func stitchedTrace(t *testing.T, client *http.Client, base, tid string, timeout time.Duration) server.TracesResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var doc server.TracesResponse
	for {
		resp, err := client.Get(base + "/debugz/traces?id=" + tid)
		if err != nil {
			t.Fatalf("GET /debugz/traces?id=%s: %v", tid, err)
		}
		doc = server.TracesResponse{}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode /debugz/traces?id=%s: %v", tid, err)
		}
		procs := map[string]bool{}
		for _, v := range doc.Traces {
			procs[v.Proc] = true
		}
		if procs["router"] && len(procs) >= 2 {
			return doc
		}
		if time.Now().After(deadline) {
			return doc
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStitchedTraceAcrossProcesses: one /v1/infer through a 2-shard cluster
// yields exactly one stitched trace — the router's root view (route span plus
// a relay attempt) and the serving shard's view (the six pipeline stages) —
// grouped under the single wire trace ID the response header reports.
func TestStitchedTraceAcrossProcesses(t *testing.T) {
	c := startCluster(t, Options{Shards: 2, Preload: true})
	client := &http.Client{Timeout: 30 * time.Second}

	spec := reqSpec{"/v1/infer", `{"db":"ASIS","model":"gpt-4o","variant":"native","question_id":1}`}
	resp, body, tid := postTraced(t, client, c.RouterURL, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer status %d: %s", resp.StatusCode, body)
	}
	if tid == "" {
		t.Fatal("response carries no X-Snails-Trace header")
	}

	doc := stitchedTrace(t, client, c.RouterURL, tid, 5*time.Second)
	if doc.TraceID != tid {
		t.Errorf("stitched doc echoes trace_id %q, want %q", doc.TraceID, tid)
	}
	var routerView, shardView *trace.View
	for i := range doc.Traces {
		v := &doc.Traces[i]
		if v.TraceID != tid {
			t.Errorf("view proc=%q carries trace_id %q, want %q", v.Proc, v.TraceID, tid)
		}
		switch {
		case v.Proc == "router":
			routerView = v
		case strings.HasPrefix(v.Proc, "shard-"):
			shardView = v
		}
	}
	if routerView == nil || shardView == nil {
		t.Fatalf("stitched trace must span router and shard processes, got %d views: %+v", len(doc.Traces), doc.Traces)
	}

	routerStages := map[string]int{}
	for _, sp := range routerView.Spans {
		routerStages[sp.Stage]++
	}
	if routerStages["route"] != 1 {
		t.Errorf("router view route spans = %d, want 1 (spans: %+v)", routerStages["route"], routerView.Spans)
	}
	if routerStages["relay_attempt"] != 1 {
		t.Errorf("router view relay_attempt spans = %d, want 1 (spans: %+v)", routerStages["relay_attempt"], routerView.Spans)
	}

	shardStages := map[string]bool{}
	for _, sp := range shardView.Spans {
		shardStages[sp.Stage] = true
	}
	for _, want := range []string{"queue", "prompt_render", "llm_decode", "sql_parse", "sql_exec", "match"} {
		if !shardStages[want] {
			t.Errorf("shard view missing pipeline stage %q (spans: %+v)", want, shardView.Spans)
		}
	}
	if !shardStages["backend_attempt"] {
		t.Errorf("shard view missing backend_attempt span (spans: %+v)", shardView.Spans)
	}
}

// TestFailoverRelayAttemptsShareOneTrace: a request whose first shard dies
// mid-flight records BOTH relay attempts — the failed one against the dead
// shard and the succeeding one against the survivor — in the same router
// trace, tagged shard#attempt in order. The health interval is set far above
// the test's duration so the router genuinely discovers the death on the
// request path, not from a probe.
func TestFailoverRelayAttemptsShareOneTrace(t *testing.T) {
	c := startCluster(t, Options{
		Shards:  2,
		Preload: true,
		Router:  cluster.Config{HealthInterval: 10 * time.Second},
	})
	client := &http.Client{Timeout: 30 * time.Second}

	// Find a request that shard-0 owns while both shards are up.
	var spec reqSpec
	found := false
	for _, s := range testStream() {
		if _, _, shard := post(t, client, c.RouterURL, s); shard == "shard-0" {
			spec, found = s, true
			break
		}
	}
	if !found {
		t.Fatal("no stream request routed to shard-0")
	}

	c.KillShard(0)
	resp, body, tid := postTraced(t, client, c.RouterURL, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover request status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Snails-Shard"); got != "shard-1" {
		t.Fatalf("failover request served by %q, want shard-1", got)
	}
	if tid == "" {
		t.Fatal("failover response carries no X-Snails-Trace header")
	}

	doc := stitchedTrace(t, client, c.RouterURL, tid, 5*time.Second)
	var routerView *trace.View
	for i := range doc.Traces {
		if doc.Traces[i].Proc == "router" {
			routerView = &doc.Traces[i]
		}
	}
	if routerView == nil {
		t.Fatalf("no router view in stitched trace: %+v", doc.Traces)
	}
	var relays []string
	for _, sp := range routerView.Spans {
		if sp.Stage == "relay_attempt" {
			relays = append(relays, sp.Tag)
		}
	}
	if len(relays) != 2 {
		t.Fatalf("router trace has %d relay attempts %v, want 2 (dead shard, then survivor)", len(relays), relays)
	}
	if relays[0] != "shard-0#0" || relays[1] != "shard-1#1" {
		t.Errorf("relay attempt tags = %v, want [shard-0#0 shard-1#1]", relays)
	}
	shardSeen := false
	for _, v := range doc.Traces {
		if v.Proc == "shard-1" && v.TraceID == tid {
			shardSeen = true
		}
	}
	if !shardSeen {
		t.Errorf("surviving shard's view missing from stitched trace: %+v", doc.Traces)
	}
}
