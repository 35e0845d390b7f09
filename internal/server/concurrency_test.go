package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snails-bench/snails/internal/backend"
)

// inferBodies builds n distinct /v1/infer requests spread across four
// databases, two models, and three variants — the same grid the PR-1
// determinism test covers, now through the serving path.
func inferBodies(n int) []string {
	dbs := []string{"ASIS", "ATBI", "CWO", "KIS"}
	models := []string{"gpt-4o", "gpt-3.5"}
	variants := []string{"native", "regular", "least"}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(`{"db":%q,"model":%q,"variant":%q,"question_id":%d}`,
			dbs[i%len(dbs)], models[i%len(models)], variants[i%len(variants)], (i%5)+1)
	}
	return out
}

// gatedBackend blocks every Infer call on a gate channel so tests can hold a
// request inside the pipeline at a known point. It is deterministic (fixed
// SQL); each request holds its pool worker for as long as the gate stays
// closed.
type gatedBackend struct {
	name    string
	gate    chan struct{}
	entered chan struct{} // buffered; receives once per Infer entry
	calls   atomic.Int64
}

func (g *gatedBackend) Name() string                       { return g.name }
func (g *gatedBackend) Capabilities() backend.Capabilities { return backend.Capabilities{} }
func (g *gatedBackend) Infer(ctx context.Context, req backend.Request) (backend.Result, error) {
	g.calls.Add(1)
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return backend.Result{SQL: "SELECT 1"}, nil
}

func newGatedBackend(name string) *gatedBackend {
	return &gatedBackend{name: name, gate: make(chan struct{}), entered: make(chan struct{}, 64)}
}

// pollUntil waits for cond with a deadline; the server-side analogue of the
// memo package's waitFor.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// flightKeyFor reproduces the response-cache key the server derives for a
// request body, so tests can observe flight membership deterministically.
func flightKeyFor(t *testing.T, s *Server, endpoint, body string) string {
	t.Helper()
	var req apiRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatalf("body: %v", err)
	}
	return s.cacheKey(endpoint, &req)
}

// TestInferMissCoalescingByteIdentity holds a leader inside the backend,
// parks N identical misses behind it, and asserts the pipeline ran once,
// every caller got byte-identical bodies, the followers are tagged and
// counted as coalesced, and a solo run on an uncached server produces the
// same bytes.
func TestInferMissCoalescingByteIdentity(t *testing.T) {
	gb := newGatedBackend("gated")
	s := New(Config{
		RequestTimeout: 30 * time.Second,
		Workers:        4,
		Backends:       []backend.Backend{gb},
	})
	const body = `{"db":"ASIS","model":"gated","variant":"regular","question_id":1}`
	const followers = 6

	recs := make(chan *httptest.ResponseRecorder, followers+1)
	go func() { recs <- do(s, http.MethodPost, "/v1/infer", body, nil) }()
	<-gb.entered // the leader is inside the backend; its flight is registered

	for i := 0; i < followers; i++ {
		go func() { recs <- do(s, http.MethodPost, "/v1/infer", body, nil) }()
	}
	key := flightKeyFor(t, s, "/v1/infer", body)
	pollUntil(t, "followers to park on the flight", func() bool { return s.flight.Waiters(key) == followers })
	close(gb.gate)

	byCache := map[string]int{}
	var first string
	for i := 0; i < followers+1; i++ {
		rec := <-recs
		if rec.Code != http.StatusOK {
			t.Fatalf("caller %d: HTTP %d: %s", i, rec.Code, rec.Body.String())
		}
		byCache[rec.Header().Get("X-Snails-Cache")]++
		if first == "" {
			first = rec.Body.String()
		} else if rec.Body.String() != first {
			t.Fatalf("coalesced bodies diverge:\n%s\nvs\n%s", first, rec.Body.String())
		}
	}
	if got := gb.calls.Load(); got != 1 {
		t.Fatalf("backend ran %d times for %d identical concurrent misses, want 1", got, followers+1)
	}
	if byCache["miss"] != 1 || byCache["coalesced"] != followers {
		t.Fatalf("X-Snails-Cache tally = %v, want 1 miss and %d coalesced", byCache, followers)
	}
	if snap := s.metricsSnapshot(); snap.CacheCoalesced != followers {
		t.Fatalf("CacheCoalesced = %d, want %d", snap.CacheCoalesced, followers)
	}

	// A repeat is a plain cache hit with the same bytes.
	rec := do(s, http.MethodPost, "/v1/infer", body, nil)
	if rec.Header().Get("X-Snails-Cache") != "hit" || rec.Body.String() != first {
		t.Fatalf("post-coalesce repeat: cache=%q, bytes equal=%v",
			rec.Header().Get("X-Snails-Cache"), rec.Body.String() == first)
	}

	// Byte identity against a solo run with caching (and so the flight)
	// disabled entirely.
	gb2 := newGatedBackend("gated")
	close(gb2.gate)
	solo := New(Config{
		CacheEntries:   -1,
		RequestTimeout: 30 * time.Second,
		Backends:       []backend.Backend{gb2},
	})
	rec = do(solo, http.MethodPost, "/v1/infer", body, nil)
	if rec.Code != http.StatusOK || rec.Body.String() != first {
		t.Fatalf("solo uncached run differs from coalesced bytes (HTTP %d):\n%s\nvs\n%s",
			rec.Code, rec.Body.String(), first)
	}
}

// TestInferLeaderCancellationHandoff cancels a flight leader mid-compute: the
// leader answers 499, the parked follower re-runs the pipeline as the new
// leader (no inherited failure, no lost wakeup), and the result still lands
// in the cache.
func TestInferLeaderCancellationHandoff(t *testing.T) {
	gb := newGatedBackend("gated")
	s := New(Config{
		RequestTimeout: 30 * time.Second,
		Workers:        4,
		Backends:       []backend.Backend{gb},
	})
	const body = `{"db":"ASIS","model":"gated","variant":"regular","question_id":2}`

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderRec := make(chan *httptest.ResponseRecorder, 1)
	go func() { leaderRec <- do(s, http.MethodPost, "/v1/infer", body, leaderCtx) }()
	<-gb.entered

	followerRec := make(chan *httptest.ResponseRecorder, 1)
	go func() { followerRec <- do(s, http.MethodPost, "/v1/infer", body, nil) }()
	key := flightKeyFor(t, s, "/v1/infer", body)
	pollUntil(t, "follower to park on the flight", func() bool { return s.flight.Waiters(key) == 1 })

	cancelLeader()
	lr := <-leaderRec
	if lr.Code != 499 {
		t.Fatalf("canceled leader answered %d, want 499: %s", lr.Code, lr.Body.String())
	}

	// The follower re-leads: a second pipeline run enters the backend. (The
	// first run keeps executing on its pool job — its result may warm
	// caches — but the follower must not depend on it.)
	<-gb.entered
	close(gb.gate)
	fr := <-followerRec
	if fr.Code != http.StatusOK {
		t.Fatalf("handoff follower answered %d: %s", fr.Code, fr.Body.String())
	}
	if fr.Header().Get("X-Snails-Cache") != "miss" {
		t.Fatalf("new leader cache verdict = %q, want miss (it recomputed)", fr.Header().Get("X-Snails-Cache"))
	}
	if got := gb.calls.Load(); got != 2 {
		t.Fatalf("backend ran %d times, want 2 (canceled leader + handoff)", got)
	}

	// The recomputed result is cached and byte-identical on a hit.
	rec := do(s, http.MethodPost, "/v1/infer", body, nil)
	if rec.Header().Get("X-Snails-Cache") != "hit" || rec.Body.String() != fr.Body.String() {
		t.Fatalf("post-handoff repeat: cache=%q, bytes equal=%v",
			rec.Header().Get("X-Snails-Cache"), rec.Body.String() == fr.Body.String())
	}
}

// TestConcurrentInferDeterministic fires 100 simultaneous /v1/infer requests
// across 4 databases and asserts every response body is byte-identical to a
// serial run. Caching is disabled on both servers so the comparison covers
// the pooled compute path, not cache replay; run under -race this is the
// serving-layer extension of the sweep determinism guarantee.
func TestConcurrentInferDeterministic(t *testing.T) {
	const n = 100
	bodies := inferBodies(n)

	// Serial baseline: one request at a time.
	serial := New(Config{CacheEntries: -1, RequestTimeout: 60 * time.Second})
	want := make([]string, n)
	for i, b := range bodies {
		rec := do(serial, http.MethodPost, "/v1/infer", b, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("serial request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		want[i] = rec.Body.String()
	}

	// Concurrent run on a fresh server: all 100 requests contend for the
	// worker pool and the shared prompt, parse and execution memos at once.
	concurrent := New(Config{CacheEntries: -1, RequestTimeout: 60 * time.Second})
	got := make([]string, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := do(concurrent, http.MethodPost, "/v1/infer", bodies[i], nil)
			if rec.Code != http.StatusOK {
				t.Errorf("concurrent request %d: status %d: %s", i, rec.Code, rec.Body.String())
				return
			}
			got[i] = rec.Body.String()
		}(i)
	}
	close(start) // release all 100 at once
	wg.Wait()

	for i := range bodies {
		if got[i] != want[i] {
			t.Errorf("request %d diverged under concurrency:\nserial:     %s\nconcurrent: %s", i, want[i], got[i])
		}
	}

	// Repeating one request serially afterwards still matches: shared model
	// state and memo caches did not drift.
	rec := do(concurrent, http.MethodPost, "/v1/infer", bodies[0], nil)
	if rec.Body.String() != want[0] {
		t.Errorf("post-storm replay diverged:\nwant %s\ngot  %s", want[0], rec.Body.String())
	}
}

// TestGracefulDrainUnderLoad starts requests, begins shutdown mid-flight,
// and asserts every in-flight request still completes with a terminal
// outcome while new requests are rejected.
func TestGracefulDrainUnderLoad(t *testing.T) {
	s := New(Config{
		CacheEntries:   -1,
		RequestTimeout: 60 * time.Second,
		Workers:        1, // one worker: most requests are still queued when the drain hits
	})
	bodies := inferBodies(16)
	results := make(chan int, len(bodies))
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := do(s, http.MethodPost, "/v1/infer", bodies[i], nil)
			results <- rec.Code
		}(i)
	}
	// Give the requests a moment to queue behind the lone worker, then
	// drain: queued jobs must run, not hang.
	time.Sleep(5 * time.Millisecond)
	s.Drain()
	wg.Wait()
	close(results)

	for code := range results {
		// Requests queued before the drain finish with 200; requests
		// that arrived after BeginShutdown are rejected with 503. Nothing
		// may hang or fail with any other status.
		if code != http.StatusOK && code != http.StatusServiceUnavailable {
			t.Errorf("in-flight request finished with status %d", code)
		}
	}

	// After the drain, new API requests are rejected.
	rec := do(s, http.MethodPost, "/v1/classify", `{"identifier":"x"}`, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain request = %d, want 503", rec.Code)
	}
}

// TestDrainFinishesQueuedRequest queues a request behind a busy lone worker
// and drains: the drain must wait for the queued job and answer it 200 with
// bytes identical to a solo run, while rejecting new work.
func TestDrainFinishesQueuedRequest(t *testing.T) {
	gb := newGatedBackend("gated")
	s := New(Config{
		CacheEntries:   -1, // no response cache, no flight: every request reaches the pool
		RequestTimeout: 30 * time.Second,
		Workers:        1,
		Backends:       []backend.Backend{gb},
	})

	// Occupy the lone worker.
	blockRec := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		blockRec <- do(s, http.MethodPost, "/v1/infer",
			`{"db":"ASIS","model":"gated","variant":"regular","question_id":1}`, nil)
	}()
	<-gb.entered

	const synthBody = `{"db":"ASIS","model":"gpt-4o","variant":"regular","question_id":3}`
	synthRec := make(chan *httptest.ResponseRecorder, 1)
	go func() { synthRec <- do(s, http.MethodPost, "/v1/infer", synthBody, nil) }()
	pollUntil(t, "the request to queue behind the busy worker", func() bool { return len(s.pool.jobs) == 1 })

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	pollUntil(t, "shutdown to begin", s.isDraining)
	if rec := do(s, http.MethodPost, "/v1/infer", synthBody, nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain answered %d, want 503", rec.Code)
	}
	select {
	case <-drained:
		t.Fatal("drain returned while a job was still running")
	default:
	}

	close(gb.gate)
	<-drained
	if rec := <-blockRec; rec.Code != http.StatusOK {
		t.Fatalf("gated request answered %d after drain: %s", rec.Code, rec.Body.String())
	}
	rec := <-synthRec
	if rec.Code != http.StatusOK {
		t.Fatalf("queued-at-drain request answered %d: %s", rec.Code, rec.Body.String())
	}

	solo := New(Config{CacheEntries: -1, RequestTimeout: 30 * time.Second})
	soloRec := do(solo, http.MethodPost, "/v1/infer", synthBody, nil)
	if soloRec.Code != http.StatusOK || soloRec.Body.String() != rec.Body.String() {
		t.Fatalf("drained request bytes differ from solo run (HTTP %d):\n%s\nvs\n%s",
			soloRec.Code, rec.Body.String(), soloRec.Body.String())
	}
}
