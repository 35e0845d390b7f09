package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/snails-bench/snails/internal/backend"
)

// newBackendTestServer builds a server with a configured mock wire backend
// alongside the lazily-registered synthetic family.
func newBackendTestServer(t *testing.T, opts backend.MockOptions) *Server {
	t.Helper()
	mock, err := backend.NewMockServer(opts)
	if err != nil {
		t.Fatalf("mock server: %v", err)
	}
	t.Cleanup(func() { mock.Close() })
	be, err := backend.NewHTTP(backend.HTTPOptions{
		Name: "wire", BaseURL: mock.URL, Model: "mock-model",
		MaxRetries: 2, Backoff: time.Millisecond, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewHTTP: %v", err)
	}
	return New(Config{
		CacheEntries:   -1,
		RequestTimeout: 30 * time.Second,
		Backends:       []backend.Backend{be},
	})
}

// TestInferConfiguredHTTPBackend routes /v1/infer through a configured wire
// backend: the response must carry the backend's name and the mock's
// generation, and synthetic profiles must stay reachable next to it.
func TestInferConfiguredHTTPBackend(t *testing.T) {
	s := newBackendTestServer(t, backend.MockOptions{})

	rec := do(s, http.MethodPost, "/v1/infer",
		`{"db":"ASIS","model":"wire","variant":"native","question_id":1}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp InferResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Model != "wire" {
		t.Fatalf("Model = %q, want the configured backend id", resp.Model)
	}
	if resp.SQL == "" {
		t.Fatal("wire backend returned empty SQL")
	}

	// The synthetic family still answers by profile name.
	rec = do(s, http.MethodPost, "/v1/infer",
		`{"db":"ASIS","model":"gpt-4o","variant":"native","question_id":1}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("synthetic fallback status = %d: %s", rec.Code, rec.Body.String())
	}

	// Unknown names 404 and list the configured backend too.
	rec = do(s, http.MethodPost, "/v1/infer",
		`{"db":"ASIS","model":"gpt-99","question_id":1}`, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown model status = %d", rec.Code)
	}
	if body := rec.Body.String(); !jsonContains(body, "wire") {
		t.Fatalf("unknown-model error does not list the configured backend: %s", body)
	}
}

// TestInferBackendFailureIs502 maps an exhausted wire backend to a 502 with
// the backend_failed code, not a hung or 500 response.
func TestInferBackendFailureIs502(t *testing.T) {
	s := newBackendTestServer(t, backend.MockOptions{FailStatus: 500, FailCount: 1 << 30})
	rec := do(s, http.MethodPost, "/v1/infer",
		`{"db":"ASIS","model":"wire","question_id":1}`, nil)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502: %s", rec.Code, rec.Body.String())
	}
	if code := errCode(t, rec); code != "backend_failed" {
		t.Fatalf("code = %q, want backend_failed", code)
	}
}

// TestInferMixedBackendsConcurrent interleaves concurrent same-(db, variant)
// requests against a wire backend and a synthetic one: each response must
// come from the backend it named, with no cross-talk through the shared pool
// or prompt memos.
func TestInferMixedBackendsConcurrent(t *testing.T) {
	s := newBackendTestServer(t, backend.MockOptions{})

	const n = 4
	results := make(chan string, 2*n)
	for i := 0; i < n; i++ {
		for _, model := range []string{"wire", "gpt-4o"} {
			go func(model string, qid int) {
				rec := do(s, http.MethodPost, "/v1/infer",
					fmt.Sprintf(`{"db":"ASIS","model":%q,"variant":"native","question_id":%d}`, model, qid), nil)
				if rec.Code != http.StatusOK {
					results <- fmt.Sprintf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
				var resp InferResponse
				json.Unmarshal(rec.Body.Bytes(), &resp)
				results <- resp.Model
			}(model, i+1)
		}
	}
	counts := map[string]int{}
	for i := 0; i < 2*n; i++ {
		counts[<-results]++
	}
	if counts["wire"] != n || counts["gpt-4o"] != n {
		t.Fatalf("per-backend responses = %v, want %d each for wire and gpt-4o", counts, n)
	}
}

// jsonContains reports whether a JSON error body mentions the token.
func jsonContains(body, token string) bool {
	var doc struct {
		Error struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		return false
	}
	return strings.Contains(doc.Error.Message, token)
}
