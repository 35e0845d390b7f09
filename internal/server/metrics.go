package server

import (
	"sync/atomic"
	"time"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/obs"
	"github.com/snails-bench/snails/internal/trace"
)

// Indices of the counted endpoints in scrapePaths and metrics.byPath. The
// paths from pathMetrics on are observability traffic.
const (
	pathInfer = iota
	pathClassify
	pathModify
	pathLink
	pathMetrics
	pathMetricsz
	pathTraces
	numPaths
)

// scrapePaths names the counted endpoints. The set is fixed so /metrics
// exposes the same label set on every scrape (dashboards and the check.sh
// monotone smoke can address a series before its first request) and
// /metricsz reports the same keys.
var scrapePaths = [numPaths]string{
	"/v1/infer", "/v1/classify", "/v1/modify", "/v1/link",
	"/metrics", "/metricsz", "/debugz/traces",
}

// metrics holds the serving counters this server owns. Each fact is stored
// once: /metrics exposes these fields through the registry, and /metricsz is
// a JSON view over the same fields plus the response cache's own counters,
// so the two endpoints cannot disagree.
type metrics struct {
	start time.Time

	byPath    [numPaths]atomic.Uint64 // requests received, indexed like scrapePaths
	errors    atomic.Uint64           // responses with status >= 400
	timeouts  atomic.Uint64           // 504s
	inflight  atomic.Int64
	coalesced atomic.Uint64 // misses served by another request's in-flight compute

	dur obs.Histogram // API request latency, including queueing
}

func newMetrics() *metrics { return &metrics{start: time.Now()} }

// MetricsSnapshot is the /metricsz response document.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// RequestsTotal counts workload (API) requests only. Observability
	// traffic (/metrics, /metricsz, /debugz/traces) is reported separately,
	// so a loadgen that sends 400 requests and then pulls /metricsz reads
	// back exactly 400 however often something scraped the server.
	RequestsTotal      uint64            `json:"requests_total"`
	ObservabilityTotal uint64            `json:"observability_requests_total"`
	RequestsByPath     map[string]uint64 `json:"requests_by_path"`
	ErrorsTotal        uint64            `json:"errors_total"`
	TimeoutsTotal      uint64            `json:"timeouts_total"`
	Inflight           int64             `json:"inflight"`
	CacheHits          uint64            `json:"cache_hits"`
	CacheMisses        uint64            `json:"cache_misses"`
	// CacheCoalesced counts misses that never ran the pipeline because an
	// identical request was already computing — the singleflight followers.
	// They are a subset of CacheMisses (the lookup did miss), so the hit
	// ratio's meaning is unchanged.
	CacheCoalesced uint64  `json:"cache_coalesced"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
	CacheEntries   int     `json:"cache_entries"`
	CacheEvictions uint64  `json:"cache_evictions"`
	// LatencyP50Millis and LatencyP99Millis are lifetime quantiles of the
	// request-latency histogram, at its factor-of-two bucket resolution;
	// LatencyBuckets are its raw counts (obs.TrimBuckets form).
	LatencyP50Millis float64  `json:"latency_p50_ms"`
	LatencyP99Millis float64  `json:"latency_p99_ms"`
	LatencyBuckets   []uint64 `json:"latency_buckets,omitempty"`

	// Stages breaks request latency down by pipeline stage (queue, prompt
	// render, decode, parse, exec, match) from the trace collector's
	// log-spaced histograms, bucket counts included. Empty when tracing is
	// disabled or idle.
	Stages []trace.StageSnapshot `json:"stages,omitempty"`

	// Backend is the process-wide model-backend tally block (requests by
	// outcome, retries, backoff time, fence-extraction failures) — the same
	// families /metrics exposes as snails_backend_*. Summed across shards by
	// the router's aggregated view.
	Backend backend.Stats `json:"backend"`
}

// metricsSnapshot renders the /metricsz view of this server's sources.
func (s *Server) metricsSnapshot() MetricsSnapshot {
	m := s.metrics
	snap := MetricsSnapshot{
		RequestsByPath: make(map[string]uint64, numPaths),
		ErrorsTotal:    m.errors.Load(),
		TimeoutsTotal:  m.timeouts.Load(),
		Inflight:       m.inflight.Load(),
		CacheCoalesced: m.coalesced.Load(),
		Stages:         s.traces.Stages(),
		Backend:        backend.ReadStats(),
	}
	for i := range m.byPath {
		n := m.byPath[i].Load()
		snap.RequestsByPath[scrapePaths[i]] = n
		if i >= pathMetrics {
			snap.ObservabilityTotal += n
		} else {
			snap.RequestsTotal += n
		}
	}
	if s.cache != nil {
		snap.CacheHits, snap.CacheMisses = s.cache.Hits(), s.cache.Misses()
		snap.CacheEntries, snap.CacheEvictions = s.cache.Len(), s.cache.Evictions()
	}
	lat, _ := m.dur.Snapshot()
	snap.derive(lat)
	// Uptime is the denominator of any rate a consumer derives, so it is
	// read after the counts: at least as fresh as what it accounts for.
	snap.UptimeSeconds = time.Since(m.start).Seconds()
	return snap
}

// derive fills the fields computed from other parts of the snapshot: the
// hit ratio from the cache counts, and the request-latency quantiles from
// the latency histogram's buckets.
func (ms *MetricsSnapshot) derive(lat [obs.NumBuckets]uint64) {
	if n := ms.CacheHits + ms.CacheMisses; n > 0 {
		ms.CacheHitRatio = float64(ms.CacheHits) / float64(n)
	}
	ms.LatencyBuckets = obs.TrimBuckets(lat)
	ms.LatencyP50Millis = obs.BucketQuantile(lat, 0.50)
	ms.LatencyP99Millis = obs.BucketQuantile(lat, 0.99)
}

// MergeSnapshots folds per-shard /metricsz snapshots into one cluster-wide
// view. Counters and histogram buckets sum; everything derived is then
// computed from the sums exactly as a single shard computes it, so the
// merged p50/p99 (request and per stage) are the quantiles of the union of
// every shard's observations, and a one-shard merge reads like the shard's
// own view. Uptime is the oldest shard's.
func MergeSnapshots(snaps []MetricsSnapshot) MetricsSnapshot {
	var out MetricsSnapshot
	if len(snaps) == 0 {
		return out
	}
	out.RequestsByPath = map[string]uint64{}
	var lat [obs.NumBuckets]uint64
	for _, s := range snaps {
		out.UptimeSeconds = max(out.UptimeSeconds, s.UptimeSeconds)
		out.RequestsTotal += s.RequestsTotal
		out.ObservabilityTotal += s.ObservabilityTotal
		for p, n := range s.RequestsByPath {
			out.RequestsByPath[p] += n
		}
		out.ErrorsTotal += s.ErrorsTotal
		out.TimeoutsTotal += s.TimeoutsTotal
		out.Inflight += s.Inflight
		out.CacheHits += s.CacheHits
		out.CacheMisses += s.CacheMisses
		out.CacheCoalesced += s.CacheCoalesced
		out.CacheEntries += s.CacheEntries
		out.CacheEvictions += s.CacheEvictions
		obs.AddBuckets(&lat, s.LatencyBuckets)
		out.Backend.RequestsOK += s.Backend.RequestsOK
		out.Backend.RequestsError += s.Backend.RequestsError
		out.Backend.Retries += s.Backend.Retries
		out.Backend.FenceFailures += s.Backend.FenceFailures
		out.Backend.BackoffSleeps += s.Backend.BackoffSleeps
		out.Backend.BackoffSeconds += s.Backend.BackoffSeconds
	}
	out.derive(lat)
	out.Stages = mergeStages(snaps)
	return out
}

// mergeStages folds per-shard stage rows by stage name, in order of first
// appearance: buckets and total time sum, and each row is rebuilt from the
// sums.
func mergeStages(snaps []MetricsSnapshot) []trace.StageSnapshot {
	type sum struct {
		stage   string
		buckets [obs.NumBuckets]uint64
		seconds float64
	}
	idx := map[string]int{}
	var sums []sum
	for _, s := range snaps {
		for _, sg := range s.Stages {
			i, ok := idx[sg.Stage]
			if !ok {
				i = len(sums)
				idx[sg.Stage] = i
				sums = append(sums, sum{stage: sg.Stage})
			}
			obs.AddBuckets(&sums[i].buckets, sg.Buckets)
			sums[i].seconds += sg.TotalSeconds
		}
	}
	var out []trace.StageSnapshot
	for _, sm := range sums {
		out = append(out, trace.NewStageSnapshot(sm.stage, sm.buckets, sm.seconds))
	}
	return out
}
