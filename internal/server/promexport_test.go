package server

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/snails-bench/snails/internal/obs"
)

// scrape fetches /metrics and returns the body, failing on a bad status or
// content type.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	rec := do(s, http.MethodGet, "/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type = %q, want %q", ct, obs.ContentType)
	}
	return rec.Body.String()
}

var serverSampleLine = regexp.MustCompile(`^([a-z0-9_]+)(\{[^}]*\})? (-?[0-9].*|\+Inf|-Inf|NaN)$`)

// parseScrape validates every line of an exposition document and returns the
// family names and the sample values keyed by name+labels. (The obs package
// owns the strict format tests; this parser re-checks the invariants that
// matter at the integration level — unique snails_ families, parseable
// samples — against the real server registry.)
func parseScrape(t *testing.T, text string) (families map[string]bool, samples map[string]float64) {
	t.Helper()
	families = map[string]bool{}
	samples = map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			name := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)[0]
			if families[name] {
				t.Fatalf("family %q declared twice", name)
			}
			if !strings.HasPrefix(name, "snails_") {
				t.Fatalf("family %q is not snails_-prefixed", name)
			}
			families[name] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := serverSampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		if m[3] != "+Inf" {
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			samples[m[1]+m[2]] = v
		}
	}
	return families, samples
}

// TestMetricsExposition drives real traffic through the server and asserts
// the scrape covers every subsystem: HTTP, cache, pool, sqlexec, stages,
// runtime.
func TestMetricsExposition(t *testing.T) {
	s := New(Config{RequestTimeout: 30 * time.Second}) // response cache on
	for i := 0; i < 2; i++ {
		if rec := do(s, http.MethodPost, "/v1/infer", validBody("/v1/infer"), nil); rec.Code != http.StatusOK {
			t.Fatalf("infer = %d: %s", rec.Code, rec.Body.String())
		}
	}
	do(s, http.MethodPost, "/v1/classify", validBody("/v1/classify"), nil)

	families, samples := parseScrape(t, scrape(t, s))
	if len(families) < 20 {
		t.Errorf("scrape exposes %d families, want >= 20", len(families))
	}
	for _, want := range []string{
		"snails_http_requests_total", "snails_http_errors_total", "snails_http_inflight",
		"snails_http_request_duration_seconds", "snails_uptime_seconds",
		"snails_cache_hits_total", "snails_cache_misses_total", "snails_cache_entries",
		"snails_cache_coalesced_total",
		"snails_pool_workers", "snails_pool_busy_workers", "snails_pool_queue_depth",
		"snails_pool_queue_capacity", "snails_pool_rejections_total",
		"snails_infer_verdicts_total", "snails_stage_duration_seconds",
		"snails_sqlexec_queries_total", "snails_sweep_cells_total",
		"snails_go_goroutines", "snails_go_heap_alloc_bytes",
	} {
		if !families[want] {
			t.Errorf("scrape missing family %s", want)
		}
	}

	if v := samples[`snails_http_requests_total{path="/v1/infer"}`]; v != 2 {
		t.Errorf("requests{/v1/infer} = %v, want 2", v)
	}
	// The second identical infer hit the response cache.
	if v := samples[`snails_cache_hits_total{cache="response"}`]; v < 1 {
		t.Errorf("response cache hits = %v, want >= 1", v)
	}
	if v := samples["snails_sqlexec_queries_total"]; v < 1 {
		t.Errorf("sqlexec queries = %v, want >= 1", v)
	}
	// Only the first infer ran the pipeline on a pool worker; the second
	// was a cache hit and records no verdict.
	var verdicts float64
	for _, v := range []string{"correct", "incorrect", "invalid"} {
		verdicts += samples[`snails_infer_verdicts_total{verdict="`+v+`"}`]
	}
	if verdicts != 1 {
		t.Errorf("infer verdicts = %v, want 1", verdicts)
	}
	if v := samples[`snails_http_request_duration_seconds_count`]; v < 3 {
		t.Errorf("duration count = %v, want >= 3 (one per API request)", v)
	}
	if v := samples["snails_go_goroutines"]; v < 1 {
		t.Errorf("goroutines = %v, want >= 1", v)
	}
	// The stage histogram saw the traced infer pipeline.
	if v := samples[`snails_stage_duration_seconds_count{stage="llm_decode"}`]; v < 1 {
		t.Errorf("decode stage count = %v, want >= 1", v)
	}

	// A second scrape must see its own predecessor: the /metrics counter is
	// monotone and self-counting.
	_, again := parseScrape(t, scrape(t, s))
	first := samples[`snails_http_requests_total{path="/metrics"}`]
	second := again[`snails_http_requests_total{path="/metrics"}`]
	if first != 1 || second != 2 {
		t.Errorf("/metrics self-count = %v then %v, want 1 then 2", first, second)
	}
}

func TestMetricsMethodNotAllowed(t *testing.T) {
	s := newTestServer()
	rec := do(s, http.MethodPost, "/metrics", "", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", rec.Code)
	}
}

// TestConcurrentScrapeUnderLoad hammers the API while scraping; under the
// race detector this is the data-race gate for every scrape-time callback.
func TestConcurrentScrapeUnderLoad(t *testing.T) {
	s := newTestServer()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"db":"ASIS","model":"gpt-4o","variant":"regular","question_id":%d}`, i%5+1)
				do(s, http.MethodPost, "/v1/infer", body, nil)
			}
		}(w)
	}
	for i := 0; i < 25; i++ {
		parseScrape(t, scrape(t, s))
	}
	close(stop)
	wg.Wait()
	parseScrape(t, scrape(t, s)) // quiesced scrape still parses
}

// BenchmarkInferLogging is the observability overhead pair: the "on" variant
// serves with debug-level access logging enabled (every record rendered) and
// a scraper hitting /metrics alongside, the "off" variant with logging
// filtered at info and no scraper. The issue's acceptance bound is <2%
// between the two.
func BenchmarkInferLogging(b *testing.B) {
	run := func(b *testing.B, level string, scrapeEvery int) {
		log, err := obs.NewLogger(io.Discard, "json", level)
		if err != nil {
			b.Fatal(err)
		}
		s := New(Config{CacheEntries: -1, RequestTimeout: 30 * time.Second, Logger: log})
		body := validBody("/v1/infer")
		do(s, http.MethodPost, "/v1/infer", body, nil) // warm datasets
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec := do(s, http.MethodPost, "/v1/infer", body, nil); rec.Code != http.StatusOK {
				b.Fatalf("infer = %d", rec.Code)
			}
			if scrapeEvery > 0 && i%scrapeEvery == 0 {
				do(s, http.MethodGet, "/metrics", "", nil)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, "info", 0) })
	b.Run("on", func(b *testing.B) { run(b, "debug", 100) })
}
