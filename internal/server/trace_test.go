package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/snails-bench/snails/internal/obs"
)

// tracesOf pulls /debugz/traces and decodes the body.
func tracesOf(t *testing.T, s *Server, query string) TracesResponse {
	t.Helper()
	rec := do(s, http.MethodGet, "/debugz/traces"+query, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debugz/traces: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var resp TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode traces: %v", err)
	}
	return resp
}

// Trace spans keep per-request attribution under concurrency: when many
// handlers' requests run at once on the shared worker pool, each finished
// trace still carries its own question id, a queue span, and the prompt and
// decode spans recorded on the worker. Run under -race this also exercises
// the slab's atomic publication against concurrent /debugz/traces readers.
func TestTraceSpansConcurrentAttribution(t *testing.T) {
	const n = 12
	s := New(Config{
		CacheEntries:   -1,
		RequestTimeout: 60 * time.Second,
		Workers:        2, // fewer workers than requests, so some wait in the queue
	})

	// All requests share (db, variant), so they contend for the same prompt
	// and parse memos.
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(qid int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"db":"ASIS","model":"gpt-4o","variant":"regular","question_id":%d}`, qid)
			rec := do(s, http.MethodPost, "/v1/infer", body, nil)
			if rec.Code != http.StatusOK {
				t.Errorf("infer q%d: HTTP %d: %s", qid, rec.Code, rec.Body.String())
			}
		}(i)
	}
	// Concurrent readers while the requests run (the -race payoff).
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				do(s, http.MethodGet, "/debugz/traces", "", nil)
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	resp := tracesOf(t, s, "")
	if len(resp.Traces) != n {
		t.Fatalf("want %d traces, got %d", n, len(resp.Traces))
	}
	seen := map[int]bool{}
	for _, v := range resp.Traces {
		if v.Endpoint != "/v1/infer" || v.DB != "ASIS" || v.Variant != "Regular" {
			t.Errorf("misattributed trace: %+v", v)
		}
		if seen[v.QuestionID] {
			t.Errorf("question %d traced twice", v.QuestionID)
		}
		seen[v.QuestionID] = true
		stages := map[string]bool{}
		for _, sp := range v.Spans {
			stages[sp.Stage] = true
			if sp.DurMillis < 0 || sp.OffsetMillis < 0 {
				t.Errorf("q%d: negative span timing: %+v", v.QuestionID, sp)
			}
		}
		for _, want := range []string{"queue", "prompt_render", "llm_decode"} {
			if !stages[want] {
				t.Errorf("q%d: missing %s span (have %v)", v.QuestionID, want, v.Spans)
			}
		}
	}
	for i := 1; i <= n; i++ {
		if !seen[i] {
			t.Errorf("no trace for question %d", i)
		}
	}

	// The stage histograms surfaced in /metricsz cover every request.
	rec := do(s, http.MethodGet, "/metricsz", "", nil)
	var snap MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decode metricsz: %v", err)
	}
	var sawDecode bool
	for _, sg := range snap.Stages {
		if sg.Stage == "llm_decode" && sg.Count == n {
			sawDecode = true
		}
	}
	if !sawDecode {
		t.Errorf("metricsz stage breakdown missing llm_decode count %d: %+v", n, snap.Stages)
	}
}

// For a serial workload the trace stream must be structurally deterministic:
// two fresh servers given the same requests produce the same traces in the
// same order, with the same span stage sequences (timings of course differ).
func TestDebugTracesDeterministicSerial(t *testing.T) {
	bodies := inferBodies(24)
	type shape struct {
		Endpoint, DB, Variant string
		QuestionID            int
		Stages                []string
	}
	runOne := func() []shape {
		s := newTestServer()
		for _, b := range bodies {
			if rec := do(s, http.MethodPost, "/v1/infer", b, nil); rec.Code != http.StatusOK {
				t.Fatalf("infer: HTTP %d: %s", rec.Code, rec.Body.String())
			}
		}
		resp := tracesOf(t, s, "")
		out := make([]shape, 0, len(resp.Traces))
		for _, v := range resp.Traces {
			sh := shape{Endpoint: v.Endpoint, DB: v.DB, Variant: v.Variant, QuestionID: v.QuestionID}
			for _, sp := range v.Spans {
				sh.Stages = append(sh.Stages, sp.Stage)
			}
			out = append(out, sh)
		}
		return out
	}

	a, b := runOne(), runOne()
	if len(a) != len(bodies) {
		t.Fatalf("want %d traces, got %d", len(bodies), len(a))
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Errorf("serial trace streams diverge:\n%s\nvs\n%s", aj, bj)
	}
}

func TestDebugTracesQueryParams(t *testing.T) {
	s := newTestServer()
	for i := 1; i <= 3; i++ {
		body := fmt.Sprintf(`{"db":"ASIS","model":"gpt-4o","variant":"regular","question_id":%d}`, i)
		if rec := do(s, http.MethodPost, "/v1/infer", body, nil); rec.Code != http.StatusOK {
			t.Fatalf("infer: HTTP %d", rec.Code)
		}
	}

	if got := len(tracesOf(t, s, "?n=2").Traces); got != 2 {
		t.Errorf("n=2: got %d traces", got)
	}
	slow := tracesOf(t, s, "?slowest=1")
	if !slow.Slowest {
		t.Errorf("slowest flag not echoed")
	}
	for i := 1; i < len(slow.Traces); i++ {
		if slow.Traces[i].TotalMs > slow.Traces[i-1].TotalMs {
			t.Errorf("slowest order violated at %d", i)
		}
	}

	for _, q := range []string{"?n=-1", "?n=x", "?slowest=maybe"} {
		rec := do(s, http.MethodGet, "/debugz/traces"+q, "", nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d", q, rec.Code)
		}
	}
}

func TestDebugTracesDisabled(t *testing.T) {
	s := New(Config{CacheEntries: -1, TraceBuffer: -1, RequestTimeout: 30 * time.Second})
	rec := do(s, http.MethodGet, "/debugz/traces", "", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("want 404 when tracing disabled, got %d", rec.Code)
	}
	if code := errCode(t, rec); code != "tracing_disabled" {
		t.Errorf("code=%q", code)
	}
	// The serving path must still work without a collector.
	if rec := do(s, http.MethodPost, "/v1/infer", validBody("/v1/infer"), nil); rec.Code != http.StatusOK {
		t.Errorf("infer with tracing disabled: HTTP %d: %s", rec.Code, rec.Body.String())
	}
}

// Tracing must not change response bytes: the same request answered by a
// traced and an untraced server is byte-identical (the cache-header aside,
// both servers run uncached here).
func TestTracingDoesNotChangeResponses(t *testing.T) {
	on := newTestServer() // default TraceBuffer 256
	off := New(Config{CacheEntries: -1, TraceBuffer: -1, RequestTimeout: 30 * time.Second})
	for _, ep := range endpoints {
		body := validBody(ep)
		a := do(on, http.MethodPost, ep, body, nil)
		b := do(off, http.MethodPost, ep, body, nil)
		if a.Code != b.Code || a.Body.String() != b.Body.String() {
			t.Errorf("%s: traced and untraced responses differ:\n%s\nvs\n%s", ep, a.Body.String(), b.Body.String())
		}
	}
}

// benchInfer drives /v1/infer with a rotating workload; the on/off pair pins
// the tracing overhead (<2% is the budget; asserted by inspection of the
// benchmark delta, since Go benchmarks don't self-compare).
func benchInfer(b *testing.B, traceBuffer int) {
	// Logging filtered at warn keeps the pair a pure tracing comparison —
	// the canonical line's sampled info promotion would otherwise write to
	// the bench's stderr (BenchmarkInferLogging owns the logging overhead).
	log, err := obs.NewLogger(io.Discard, "json", "warn")
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{CacheEntries: -1, TraceBuffer: traceBuffer, RequestTimeout: 60 * time.Second, Logger: log})
	bodies := inferBodies(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := do(s, http.MethodPost, "/v1/infer", bodies[i%len(bodies)], nil)
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
	}
}

func BenchmarkInferTraceOn(b *testing.B)  { benchInfer(b, 256) }
func BenchmarkInferTraceOff(b *testing.B) { benchInfer(b, -1) }
