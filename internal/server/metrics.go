package server

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/obs"
	"github.com/snails-bench/snails/internal/stats"
	"github.com/snails-bench/snails/internal/trace"
)

// latencyRingSize bounds the latency sample memory; 2048 samples give stable
// p99 estimates at serving rates without unbounded growth.
const latencyRingSize = 2048

// latencyRing is a fixed-size ring of request latencies in milliseconds.
// Percentiles are computed over whatever the ring currently holds, so they
// reflect recent traffic rather than the whole process lifetime.
type latencyRing struct {
	mu    sync.Mutex
	buf   [latencyRingSize]float64
	next  int
	count int
}

func (r *latencyRing) record(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	r.mu.Lock()
	r.buf[r.next] = ms
	r.next = (r.next + 1) % latencyRingSize
	if r.count < latencyRingSize {
		r.count++
	}
	r.mu.Unlock()
}

// percentiles returns the requested quantiles (0..1) over the ring; the
// ring is copied outside the lock and quantiles come from stats.Percentile,
// which interpolates between ranks. (An earlier version truncated the rank
// to an index, which biased p99 low — with 2048 samples it reported the
// 2026th-ranked latency instead of interpolating at rank 2026.53.)
func (r *latencyRing) percentiles(qs ...float64) []float64 {
	r.mu.Lock()
	n := r.count
	samples := make([]float64, n)
	copy(samples, r.buf[:n])
	r.mu.Unlock()

	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = stats.Percentile(samples, q)
	}
	return out
}

// metrics aggregates serving counters. All fields are safe for concurrent
// update; /metricsz renders a point-in-time snapshot.
type metrics struct {
	start time.Time

	requests  atomic.Uint64 // all requests, including errors
	errors    atomic.Uint64 // responses with status >= 400
	timeouts  atomic.Uint64 // 504s
	inflight  atomic.Int64
	cacheHits atomic.Uint64
	cacheMiss atomic.Uint64
	coalesced atomic.Uint64 // misses served by another request's in-flight compute

	byEndpoint sync.Map // endpoint path -> *atomic.Uint64

	lat latencyRing
	// dur is the same request latency as lat, folded into the log-spaced
	// histogram /metrics exposes (the ring serves /metricsz's interpolated
	// percentiles; the histogram serves scrape-time bucket series).
	dur obs.Histogram
}

func newMetrics() *metrics { return &metrics{start: time.Now()} }

func (m *metrics) countEndpoint(path string) {
	v, ok := m.byEndpoint.Load(path)
	if !ok {
		v, _ = m.byEndpoint.LoadOrStore(path, new(atomic.Uint64))
	}
	v.(*atomic.Uint64).Add(1)
}

// endpointCount reads one path's request count (0 before its first request).
func (m *metrics) endpointCount(path string) uint64 {
	v, ok := m.byEndpoint.Load(path)
	if !ok {
		return 0
	}
	return v.(*atomic.Uint64).Load()
}

// observabilityPaths are the endpoints whose traffic is monitoring-induced —
// scrapes and trace pulls — rather than workload. They still appear in
// requests_by_path, but requests_total excludes them: a loadgen run that
// sends 400 requests and then scrapes /metricsz must read back exactly 400,
// or the -compare gate's workload count depends on how often something
// scraped the server. (The original off-by-one: the loadgen's own final
// /metricsz pull counted itself, reporting 401.)
var observabilityPaths = []string{"/metrics", "/metricsz", "/debugz/traces"}

// MetricsSnapshot is the /metricsz response document.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// RequestsTotal counts workload (API) requests only; self-induced
	// observability traffic is reported separately so scraping the server
	// never perturbs the gated workload count.
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
	CacheCoalesced   uint64  `json:"cache_coalesced"`
	CacheHitRatio    float64 `json:"cache_hit_ratio"`
	CacheEntries     int     `json:"cache_entries"`
	CacheEvictions   uint64  `json:"cache_evictions"`
	LatencyP50Millis float64 `json:"latency_p50_ms"`
	LatencyP99Millis float64 `json:"latency_p99_ms"`

	// Stages breaks request latency down by pipeline stage (queue, prompt
	// render, decode, parse, exec, match) from the trace collector's
	// log-spaced histograms. Empty when tracing is disabled or idle.
	Stages []trace.StageSnapshot `json:"stages,omitempty"`

	// Backend is the process-wide model-backend tally block (requests by
	// outcome, retries, backoff time, fence-extraction failures) — the same
	// families /metrics exposes as snails_backend_*. Summed across shards by
	// the router's aggregated view.
	Backend backend.Stats `json:"backend"`
}

func (m *metrics) snapshot(cacheEntries int, cacheEvictions uint64) MetricsSnapshot {
	// Read every counter before computing uptime: uptime is the denominator
	// of any rate a consumer derives, so it must be at least as fresh as the
	// counts. (An earlier version evaluated uptime first inside the struct
	// literal, so counters incremented during snapshot assembly could exceed
	// what the reported uptime accounted for.)
	//
	// Observability-path counts load BEFORE the request total: every such
	// request increments both counters, so this order guarantees the
	// subtraction below never underflows even mid-increment.
	var obsTotal uint64
	for _, p := range observabilityPaths {
		obsTotal += m.endpointCount(p)
	}
	requests := m.requests.Load()
	errs, timeouts := m.errors.Load(), m.timeouts.Load()
	inflight := m.inflight.Load()
	hits, misses := m.cacheHits.Load(), m.cacheMiss.Load()
	coalesced := m.coalesced.Load()
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	ps := m.lat.percentiles(0.50, 0.99)
	byPath := map[string]uint64{}
	m.byEndpoint.Range(func(k, v any) bool {
		byPath[k.(string)] = v.(*atomic.Uint64).Load()
		return true
	})
	return MetricsSnapshot{
		UptimeSeconds:      time.Since(m.start).Seconds(),
		RequestsTotal:      requests - obsTotal,
		ObservabilityTotal: obsTotal,
		RequestsByPath:     byPath,
		ErrorsTotal:        errs,
		TimeoutsTotal:      timeouts,
		Inflight:           inflight,
		CacheHits:          hits,
		CacheMisses:        misses,
		CacheCoalesced:     coalesced,
		CacheHitRatio:      ratio,
		CacheEntries:       cacheEntries,
		CacheEvictions:     cacheEvictions,
		LatencyP50Millis:   ps[0],
		LatencyP99Millis:   ps[1],
		Backend:            backend.ReadStats(),
	}
}
