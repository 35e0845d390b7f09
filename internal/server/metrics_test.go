package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/snails-bench/snails/internal/backend"
)

// Regression: scraping the server must not count toward requests_total.
// The original bug: a loadgen that sent 400 API requests and then pulled
// /metricsz to read the counters got back requests_total=401 — the scrape
// counted itself, so the workload count depended on how often anything
// observed the server. Observability traffic is now reported separately.
func TestMetricsSelfScrapeExcluded(t *testing.T) {
	s := newTestServer()
	defer s.Drain()

	const apiRequests = 5
	for i := 0; i < apiRequests; i++ {
		if rec := do(s, "POST", "/v1/classify", validBody("/v1/classify"), nil); rec.Code != 200 {
			t.Fatalf("classify request %d: status %d", i, rec.Code)
		}
	}
	// Scrape every observability endpoint a few times, interleaved — none
	// of it may leak into the workload count.
	for i := 0; i < 3; i++ {
		do(s, "GET", "/metricsz", "", nil)
		do(s, "GET", "/metrics", "", nil)
		do(s, "GET", "/debugz/traces", "", nil)
	}

	rec := do(s, "GET", "/metricsz", "", nil)
	var snap MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decode /metricsz: %v", err)
	}
	if snap.RequestsTotal != apiRequests {
		t.Errorf("requests_total = %d, want %d (observability traffic leaked in)", snap.RequestsTotal, apiRequests)
	}
	// 3 full scrape rounds plus the final /metricsz pull.
	if snap.ObservabilityTotal != 10 {
		t.Errorf("observability_requests_total = %d, want 10", snap.ObservabilityTotal)
	}
	// The per-path map still records everything, so nothing is hidden.
	if snap.RequestsByPath["/metricsz"] != 4 {
		t.Errorf("requests_by_path[/metricsz] = %d, want 4", snap.RequestsByPath["/metricsz"])
	}
	if snap.RequestsByPath["/v1/classify"] != apiRequests {
		t.Errorf("requests_by_path[/v1/classify] = %d, want %d", snap.RequestsByPath["/v1/classify"], apiRequests)
	}
}

// TestMetricsAndMetricszAgree drives one server through a cache miss, a
// coalesced follower, a cache hit, a 4xx and a 504, then checks that
// /metricsz and a /metrics scrape report the same counts: both views read
// the same sources.
func TestMetricsAndMetricszAgree(t *testing.T) {
	gb := newGatedBackend("gated")
	s := New(Config{RequestTimeout: 30 * time.Second, Workers: 2, Backends: []backend.Backend{gb}})
	defer s.Drain()

	// A miss and a coalesced follower: the leader holds inside the backend
	// while an identical request parks on its flight.
	const body = `{"db":"ASIS","model":"gated","variant":"regular","question_id":1}`
	recs := make(chan *httptest.ResponseRecorder, 2)
	go func() { recs <- do(s, http.MethodPost, "/v1/infer", body, nil) }()
	<-gb.entered
	go func() { recs <- do(s, http.MethodPost, "/v1/infer", body, nil) }()
	key := flightKeyFor(t, s, "/v1/infer", body)
	pollUntil(t, "the follower to park on the flight", func() bool { return s.flight.Waiters(key) == 1 })
	close(gb.gate)
	byCache := map[string]int{}
	for i := 0; i < 2; i++ {
		rec := <-recs
		if rec.Code != http.StatusOK {
			t.Fatalf("infer: HTTP %d: %s", rec.Code, rec.Body.String())
		}
		byCache[rec.Header().Get("X-Snails-Cache")]++
	}
	if byCache["miss"] != 1 || byCache["coalesced"] != 1 {
		t.Fatalf("X-Snails-Cache tally = %v, want one miss and one coalesced", byCache)
	}
	if rec := do(s, http.MethodPost, "/v1/infer", body, nil); rec.Header().Get("X-Snails-Cache") != "hit" {
		t.Fatalf("repeat: HTTP %d, cache %q, want a hit", rec.Code, rec.Header().Get("X-Snails-Cache"))
	}
	if rec := do(s, http.MethodPost, "/v1/classify", `{"identifiers":`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed classify = %d, want 400", rec.Code)
	}
	// A request whose deadline has already passed misses the cache, then
	// answers 504 before reaching the pipeline.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if rec := do(s, http.MethodPost, "/v1/classify", validBody("/v1/classify"), expired); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired classify = %d, want 504", rec.Code)
	}

	snap := metricsz(t, s)
	_, samples := parseScrape(t, scrape(t, s))

	agree := func(what, series string, want uint64) {
		t.Helper()
		if got, ok := samples[series]; !ok || got != float64(want) {
			t.Errorf("%s: /metrics %s = %v (present %v), /metricsz %d", what, series, got, ok, want)
		}
	}
	for _, p := range scrapePaths {
		want := snap.RequestsByPath[p]
		if p == "/metrics" {
			want++ // the scrape counts itself
		}
		agree("requests_by_path["+p+"]", `snails_http_requests_total{path="`+p+`"}`, want)
	}
	agree("errors_total", "snails_http_errors_total", snap.ErrorsTotal)
	agree("timeouts_total", "snails_http_timeouts_total", snap.TimeoutsTotal)
	agree("cache_hits", `snails_cache_hits_total{cache="response"}`, snap.CacheHits)
	agree("cache_misses", `snails_cache_misses_total{cache="response"}`, snap.CacheMisses)
	agree("cache_evictions", `snails_cache_evictions_total{cache="response"}`, snap.CacheEvictions)
	agree("cache_entries", `snails_cache_entries{cache="response"}`, uint64(snap.CacheEntries))
	agree("cache_coalesced", "snails_cache_coalesced_total", snap.CacheCoalesced)
	var latCount uint64
	for _, n := range snap.LatencyBuckets {
		latCount += n
	}
	agree("latency_buckets total", "snails_http_request_duration_seconds_count", latCount)

	// And the counts are the traffic's: 5 API requests, 2 of them errors.
	if snap.RequestsTotal != 5 || latCount != 5 || snap.ErrorsTotal != 2 || snap.TimeoutsTotal != 1 {
		t.Errorf("requests %d, latency count %d, errors %d, timeouts %d; want 5, 5, 2, 1",
			snap.RequestsTotal, latCount, snap.ErrorsTotal, snap.TimeoutsTotal)
	}
	if snap.CacheHits != 1 || snap.CacheMisses != 3 || snap.CacheCoalesced != 1 || snap.CacheEntries != 1 {
		t.Errorf("cache hits %d, misses %d, coalesced %d, entries %d; want 1, 3, 1, 1",
			snap.CacheHits, snap.CacheMisses, snap.CacheCoalesced, snap.CacheEntries)
	}
}
