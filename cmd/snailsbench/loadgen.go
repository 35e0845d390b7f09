package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snails-bench/snails/internal/cluster"
	"github.com/snails-bench/snails/internal/cluster/clustertest"
	"github.com/snails-bench/snails/internal/server"
	"github.com/snails-bench/snails/internal/trace"
)

// serveStats is the schema of the BENCH_serve.json artifact: client-side
// throughput and latency plus the server's own /metricsz counters.
type serveStats struct {
	Target           string  `json:"target"`
	Requests         int     `json:"requests"`
	Errors           int     `json:"errors"`
	Concurrency      int     `json:"concurrency"`
	WallClockSeconds float64 `json:"wall_clock_seconds"`
	RequestsPerSec   float64 `json:"requests_per_sec"`
	ClientP50Millis  float64 `json:"client_p50_ms"`
	ClientP99Millis  float64 `json:"client_p99_ms"`

	// ClientTransport records how the loadgen's HTTP client was tuned, so a
	// BENCH_serve.json regression can be told apart from a client-side
	// connection-churn artifact (the default transport keeps only two idle
	// connections per host — at higher concurrency every other request paid
	// a TCP handshake, and client p99 measured the churn, not the server).
	ClientTransport *clientTransport `json:"client_transport,omitempty"`

	Server server.MetricsSnapshot `json:"server"`

	// ShardScaling (with -cluster-shards) is the cluster throughput table:
	// one row per shard count, each driving an in-process cluster (router
	// + N shards on loopback) with the offered load scaled by the shard
	// count — N× the request volume at N× the client concurrency, the
	// classic weak-scaling serving benchmark ("N shards absorb N tenants'
	// traffic in the same wall clock"). Each row records its own request
	// and concurrency columns so the scaling is explicit. Speedup is
	// requests_per_sec relative to the 1-shard row (both through the
	// router, so the proxy hop cancels out of the ratio). When the
	// committed baseline carries the table, -compare gates every row.
	ShardScaling []shardPoint `json:"shard_scaling,omitempty"`

	// StageBudget (with -trace) attributes traced time to pipeline stages
	// across every trace the server still buffers: where a marginal
	// millisecond of serving latency actually goes. Fractions are of total
	// traced span time, not wall clock — concurrent requests' stages overlap.
	StageBudget []stageBudget `json:"stage_budget,omitempty"`
	// TracesSampled reports how many buffered traces the budget covers.
	TracesSampled int `json:"traces_sampled,omitempty"`
}

// shardPoint is one row of the cluster weak-scaling table.
type shardPoint struct {
	Shards           int     `json:"shards"`
	Requests         int     `json:"requests"`
	Concurrency      int     `json:"concurrency"`
	Errors           int     `json:"errors"`
	WallClockSeconds float64 `json:"wall_clock_seconds"`
	RequestsPerSec   float64 `json:"requests_per_sec"`
	Speedup          float64 `json:"speedup"`

	// RouterOverheadMillis attributes the proxy hop's cost from stitched
	// traces: over every recent request with both a router-side and a
	// shard-side view under one wire trace ID, the mean of router end-to-end
	// time minus shard-side total time — body buffering, ring lookup, relay
	// round-trip overhead, and response copy. OverheadSamples counts the
	// stitched pairs behind the mean (cache hits produce router-only views
	// and are excluded).
	RouterOverheadMillis float64 `json:"router_overhead_ms"`
	OverheadSamples      int     `json:"overhead_samples"`
}

// routerOverhead pulls the router's merged trace stream (router views plus
// shard views in one document) and computes the per-request proxy overhead
// by grouping views on their shared wire trace ID.
func routerOverhead(client *http.Client, base string, stderr io.Writer) (float64, int) {
	resp, err := client.Get(base + "/debugz/traces")
	if err != nil {
		fmt.Fprintln(stderr, "snailsbench: router traces:", err)
		return 0, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(stderr, "snailsbench: router traces: HTTP %d\n", resp.StatusCode)
		return 0, 0
	}
	var tr server.TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		fmt.Fprintln(stderr, "snailsbench: router traces:", err)
		return 0, 0
	}
	type pair struct {
		routerMs, shardMs   float64
		hasRouter, hasShard bool
	}
	groups := map[string]*pair{}
	for _, v := range tr.Traces {
		if v.TraceID == "" {
			continue
		}
		g := groups[v.TraceID]
		if g == nil {
			g = &pair{}
			groups[v.TraceID] = g
		}
		if v.Proc == "router" {
			g.routerMs += v.TotalMs
			g.hasRouter = true
		} else {
			g.shardMs += v.TotalMs
			g.hasShard = true
		}
	}
	var sum float64
	n := 0
	for _, g := range groups {
		if g.hasRouter && g.hasShard {
			sum += g.routerMs - g.shardMs
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// stageBudget is one pipeline stage's share of the traced serving time.
type stageBudget struct {
	Stage       string  `json:"stage"`
	Spans       int     `json:"spans"`
	TotalMillis float64 `json:"total_ms"`
	Fraction    float64 `json:"fraction"`
}

// stageBudgetFrom aggregates buffered traces into the per-stage budget,
// preserving pipeline stage order of first appearance.
func stageBudgetFrom(views []trace.View) []stageBudget {
	idx := map[string]int{}
	var out []stageBudget
	var totalMs float64
	for _, v := range views {
		for _, sp := range v.Spans {
			i, ok := idx[sp.Stage]
			if !ok {
				i = len(out)
				idx[sp.Stage] = i
				out = append(out, stageBudget{Stage: sp.Stage})
			}
			out[i].Spans++
			out[i].TotalMillis += sp.DurMillis
			totalMs += sp.DurMillis
		}
	}
	for i := range out {
		if totalMs > 0 {
			out[i].Fraction = out[i].TotalMillis / totalMs
		}
	}
	return out
}

// workload builds the deterministic request mix: /v1/infer across four
// databases, two models, and three variants (with deliberate repeats so the
// response cache sees hits), interleaved with classify/modify/link traffic.
func workload(n int) []struct{ path, body string } {
	dbs := []string{"ASIS", "ATBI", "CWO", "KIS"}
	models := []string{"gpt-4o", "gpt-3.5"}
	variants := []string{"native", "regular", "least"}
	reqs := make([]struct{ path, body string }, 0, n)
	for i := 0; len(reqs) < n; i++ {
		switch i % 8 {
		case 6:
			switch i % 3 {
			case 0:
				reqs = append(reqs, struct{ path, body string }{"/v1/classify",
					fmt.Sprintf(`{"identifiers":["tbl_emp_%d","vegetation_height","xqz"]}`, i%5)})
			case 1:
				reqs = append(reqs, struct{ path, body string }{"/v1/modify",
					`{"op":"expand","identifier":"veg_hght"}`})
			default:
				reqs = append(reqs, struct{ path, body string }{"/v1/classify",
					fmt.Sprintf(`{"db":%q}`, dbs[i%len(dbs)])})
			}
		case 7:
			reqs = append(reqs, struct{ path, body string }{"/v1/link",
				`{"gold_sql":"SELECT a FROM t","pred_sql":"SELECT a FROM t WHERE b = 1"}`})
		default:
			// Consecutive requests share a (db, variant) block so concurrent
			// workers hit the same prompt memos at once; question ids cycle
			// over a small window so repeats drive cache hits.
			qid := (i % 7) + 1
			block := i / 8
			body := fmt.Sprintf(`{"db":%q,"model":%q,"variant":%q,"question_id":%d}`,
				dbs[block%len(dbs)], models[i%len(models)], variants[(block/len(dbs))%len(variants)], qid)
			reqs = append(reqs, struct{ path, body string }{"/v1/infer", body})
		}
	}
	return reqs[:n]
}

// spawnInprocServer starts a snailsd-equivalent server on a loopback port
// and returns its base URL plus a graceful stop function.
func spawnInprocServer(stderr io.Writer) (string, func(), error) {
	s := server.New(server.Config{})
	s.Preload()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: s}
	go httpSrv.Serve(ln)
	stop := func() {
		s.BeginShutdown()
		httpSrv.Close()
		s.Drain()
	}
	fmt.Fprintf(stderr, "snailsbench: spawned in-process snailsd on %s\n", ln.Addr())
	return "http://" + ln.Addr().String(), stop, nil
}

// clientTransport is the BENCH_serve.json record of the loadgen client's
// transport tuning.
type clientTransport struct {
	MaxIdleConnsPerHost int     `json:"max_idle_conns_per_host"`
	MaxIdleConns        int     `json:"max_idle_conns"`
	IdleConnTimeoutSecs float64 `json:"idle_conn_timeout_secs"`
	TimeoutSecs         float64 `json:"timeout_secs"`
}

// tunedClient builds the loadgen HTTP client with an idle-connection pool
// sized to the worker count: every concurrent worker keeps its connection
// warm between requests instead of fighting over http.DefaultTransport's
// two-per-host idle slots and re-handshaking on every miss.
func tunedClient(concurrency int) (*http.Client, *clientTransport) {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxIdleConnsPerHost = concurrency
	if tp.MaxIdleConns < concurrency {
		tp.MaxIdleConns = concurrency
	}
	tp.IdleConnTimeout = 30 * time.Second
	rec := &clientTransport{
		MaxIdleConnsPerHost: tp.MaxIdleConnsPerHost,
		MaxIdleConns:        tp.MaxIdleConns,
		IdleConnTimeoutSecs: tp.IdleConnTimeout.Seconds(),
		TimeoutSecs:         30,
	}
	return &http.Client{Transport: tp, Timeout: 30 * time.Second}, rec
}

// hammer drives the request list through the target at the given client
// concurrency and returns wall-clock time, per-request latencies of the
// successes, and the error count.
func hammer(client *http.Client, target string, reqs []struct{ path, body string }, concurrency int, stderr io.Writer) (time.Duration, []float64, int) {
	var (
		errs      atomic.Int64
		latMu     sync.Mutex
		latencies = make([]float64, 0, len(reqs))
	)
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r := reqs[i]
				t0 := time.Now()
				resp, err := client.Post(target+r.path, "application/json", bytes.NewReader([]byte(r.body)))
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				if err != nil {
					errs.Add(1)
					fmt.Fprintf(stderr, "snailsbench: %s: %v\n", r.path, err)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs.Add(1)
					fmt.Fprintf(stderr, "snailsbench: %s: HTTP %d: %s\n", r.path, resp.StatusCode, bytes.TrimSpace(body))
					continue
				}
				latMu.Lock()
				latencies = append(latencies, ms)
				latMu.Unlock()
			}
		}()
	}
	for i := range reqs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return time.Since(start), latencies, int(errs.Load())
}

// interleave reorders a request stream by a fixed stride coprime to its
// length, deterministically spreading the workload's consecutive
// same-(db, variant) blocks apart. The serial block order is right for a
// single process (it concentrates prompt-memo reuse), but a cluster client
// population is many tenants hitting different databases at once — without
// the interleave every in-flight request targets the same shard's block
// while the other shards idle, and the table measures the stream's
// serialization instead of the topology.
func interleave(reqs []struct{ path, body string }) []struct{ path, body string } {
	n := len(reqs)
	if n == 0 {
		return reqs
	}
	stride := 37
	for gcd(stride, n) != 1 {
		stride++
	}
	out := make([]struct{ path, body string }, n)
	for k := 0; k < n; k++ {
		out[k] = reqs[(k*stride)%n]
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// runClusterTable measures the cluster weak-scaling table through the
// clustertest rig (real router, real shards, on loopback): the row for N
// shards offers N× the base request volume at N× the base client
// concurrency, so each shard sees the same per-shard load in every row and
// speedup reports how much more traffic the topology absorbs in similar
// wall clock. The per-shard concurrency is kept low (-cluster-concurrency,
// default 2) so a lone shard is bound by per-request latency in a closed
// loop, not the CPU; independent per-shard request streams are exactly what
// sharding parallelizes. Every row must complete error-free.
func runClusterTable(cfg *benchConfig, counts []int, stdout, stderr io.Writer) ([]shardPoint, error) {
	var points []shardPoint
	var baseRPS float64
	for _, n := range counts {
		// The router traces every request (cache hits included) while shards
		// trace only computed paths, so with the default 256-trace ring the
		// early cache-miss traces — the only ones with a shard-side pair —
		// are evicted before the post-run pull. Size the router's ring to the
		// row's request volume so the overhead attribution keeps its samples.
		c, err := clustertest.Start(clustertest.Options{Shards: n, Preload: true,
			Router: cluster.Config{TraceBuffer: cfg.requests * n}})
		if err != nil {
			return nil, fmt.Errorf("cluster with %d shards: %w", n, err)
		}
		reqs := interleave(workload(cfg.requests * n))
		concurrency := cfg.clusterConcurrency * n
		client, _ := tunedClient(concurrency)
		wall, _, errCount := hammer(client, c.RouterURL, reqs, concurrency, stderr)
		overheadMs, samples := routerOverhead(client, c.RouterURL, stderr)
		c.Stop()

		pt := shardPoint{
			Shards:               n,
			Requests:             len(reqs),
			Concurrency:          concurrency,
			Errors:               errCount,
			WallClockSeconds:     wall.Seconds(),
			RequestsPerSec:       float64(len(reqs)) / wall.Seconds(),
			RouterOverheadMillis: overheadMs,
			OverheadSamples:      samples,
		}
		if baseRPS == 0 {
			baseRPS = pt.RequestsPerSec
		}
		pt.Speedup = pt.RequestsPerSec / baseRPS
		points = append(points, pt)
		fmt.Fprintf(stdout, "cluster: shards=%d requests=%d concurrency=%d wall=%.2fs rps=%.0f speedup=%.2fx router_overhead=%.2fms (%d stitched) errors=%d\n",
			pt.Shards, pt.Requests, pt.Concurrency, pt.WallClockSeconds, pt.RequestsPerSec, pt.Speedup, pt.RouterOverheadMillis, pt.OverheadSamples, pt.Errors)
		if errCount > 0 {
			return points, fmt.Errorf("cluster with %d shards: %d requests failed", n, errCount)
		}
	}
	return points, nil
}

// runLoadgen hammers the target server with the deterministic workload and
// writes BENCH_serve.json. Exit status 0 requires every request to succeed.
func runLoadgen(cfg *benchConfig, stdout, stderr io.Writer) int {
	// With an in-process server the profiles cover the serving work itself,
	// not just the client loop — the `make profile` path relies on this.
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "snailsbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "snailsbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if cfg.memProfile != "" {
		defer func() {
			f, err := os.Create(cfg.memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "snailsbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "snailsbench:", err)
			}
		}()
	}

	target := cfg.target
	if target == "" {
		t, stop, err := spawnInprocServer(stderr)
		if err != nil {
			fmt.Fprintln(stderr, "snailsbench:", err)
			return 1
		}
		defer stop()
		target = t
	}

	reqs := workload(cfg.requests)
	client, transportRec := tunedClient(cfg.concurrency)

	wall, latencies, errCount := hammer(client, target, reqs, cfg.concurrency, stderr)

	stats := serveStats{
		Target:           target,
		Requests:         len(reqs),
		Errors:           errCount,
		Concurrency:      cfg.concurrency,
		WallClockSeconds: wall.Seconds(),
		RequestsPerSec:   float64(len(reqs)) / wall.Seconds(),
		ClientTransport:  transportRec,
	}
	sort.Float64s(latencies)
	if n := len(latencies); n > 0 {
		stats.ClientP50Millis = latencies[n/2]
		stats.ClientP99Millis = latencies[int(0.99*float64(n-1))]
	}

	// Pull the server's own counters (cache hit ratio, coalescing, p50/p99).
	if resp, err := client.Get(target + "/metricsz"); err == nil {
		json.NewDecoder(resp.Body).Decode(&stats.Server)
		resp.Body.Close()
	} else {
		fmt.Fprintln(stderr, "snailsbench: metricsz:", err)
	}

	// With -trace, pull the buffered request traces and fold them into the
	// per-stage time budget. A 404 means the target runs with tracing
	// disabled — report and carry on; the budget is additive, not required.
	if cfg.trace {
		if resp, err := client.Get(target + "/debugz/traces"); err != nil {
			fmt.Fprintln(stderr, "snailsbench: debugz/traces:", err)
		} else {
			var tr server.TracesResponse
			if resp.StatusCode != http.StatusOK {
				fmt.Fprintf(stderr, "snailsbench: debugz/traces: HTTP %d (tracing disabled on target?)\n", resp.StatusCode)
			} else if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
				fmt.Fprintln(stderr, "snailsbench: debugz/traces:", err)
			} else {
				stats.TracesSampled = len(tr.Traces)
				stats.StageBudget = stageBudgetFrom(tr.Traces)
			}
			resp.Body.Close()
		}
	}

	// With -cluster-shards, append the weak-scaling cluster table. It runs
	// after the single-target measurement so the artifact carries both.
	if counts, _ := parseWorkerCounts(cfg.clusterShards); len(counts) > 0 {
		points, err := runClusterTable(cfg, counts, stdout, stderr)
		stats.ShardScaling = points
		if err != nil {
			fmt.Fprintln(stderr, "snailsbench:", err)
			return 1
		}
	}

	if cfg.serveOut != "" {
		data, err := json.MarshalIndent(stats, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "snailsbench:", err)
			return 1
		}
		if err := os.WriteFile(cfg.serveOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "snailsbench:", err)
			return 1
		}
	}

	fmt.Fprintf(stdout, "loadgen: %d requests in %.2fs (%.0f req/s), %d errors, cache hit ratio %.2f, server p50 %.2fms p99 %.2fms\n",
		stats.Requests, stats.WallClockSeconds, stats.RequestsPerSec, stats.Errors,
		stats.Server.CacheHitRatio, stats.Server.LatencyP50Millis, stats.Server.LatencyP99Millis)
	if len(stats.StageBudget) > 0 {
		fmt.Fprintf(stdout, "stage budget over %d traces:\n", stats.TracesSampled)
		for _, sb := range stats.StageBudget {
			fmt.Fprintf(stdout, "  %-13s spans=%-6d total=%.2fms share=%.1f%%\n",
				sb.Stage, sb.Spans, sb.TotalMillis, 100*sb.Fraction)
		}
	}
	if stats.Errors > 0 {
		return 1
	}
	return 0
}
