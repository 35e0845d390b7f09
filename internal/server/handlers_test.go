package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/snails-bench/snails/internal/experiments"
)

// newTestServer builds a server with caching disabled so every request
// exercises the pipeline (cache behaviour has its own tests).
func newTestServer() *Server {
	return New(Config{CacheEntries: -1, RequestTimeout: 30 * time.Second})
}

// do issues one request straight through ServeHTTP.
func do(s *Server, method, path, body string, ctx context.Context) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// errCode decodes the uniform error body and returns its code.
func errCode(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var doc struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("error body is not the uniform shape: %v (%s)", err, rec.Body.String())
	}
	if doc.Error.Code == "" || doc.Error.Message == "" {
		t.Fatalf("error body missing code/message: %s", rec.Body.String())
	}
	return doc.Error.Code
}

// validBody returns a known-good request body per endpoint.
func validBody(endpoint string) string {
	switch endpoint {
	case "/v1/infer":
		return `{"db":"ASIS","model":"gpt-4o","variant":"regular","question_id":1}`
	case "/v1/classify":
		return `{"identifiers":["vegetation_height","tbl_emp","xqz"]}`
	case "/v1/modify":
		return `{"op":"expand","identifier":"veg_hght"}`
	case "/v1/link":
		return `{"gold_sql":"SELECT a FROM t","pred_sql":"SELECT a FROM t"}`
	}
	panic("unknown endpoint " + endpoint)
}

// unknownDBBody returns a body referencing a nonexistent database.
func unknownDBBody(endpoint string) string {
	switch endpoint {
	case "/v1/infer":
		return `{"db":"NOPE","model":"gpt-4o","question_id":1}`
	case "/v1/classify":
		return `{"db":"NOPE"}`
	case "/v1/modify":
		return `{"db":"NOPE","op":"abbreviate","identifier":"x"}`
	case "/v1/link":
		return `{"db":"NOPE","gold_sql":"SELECT a FROM t","pred_sql":"SELECT a FROM t"}`
	}
	panic("unknown endpoint " + endpoint)
}

var endpoints = []string{"/v1/infer", "/v1/classify", "/v1/modify", "/v1/link"}

// TestEndpointTable drives every endpoint through the shared failure grid:
// valid request, unknown db, malformed JSON, oversized body, canceled
// context, and deadline exceeded.
func TestEndpointTable(t *testing.T) {
	std := newTestServer()
	tinyBody := New(Config{CacheEntries: -1, MaxBodyBytes: 96, RequestTimeout: 30 * time.Second})
	tinyDeadline := New(Config{CacheEntries: -1, RequestTimeout: time.Nanosecond})
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, ep := range endpoints {
		ep := ep
		t.Run(ep, func(t *testing.T) {
			cases := []struct {
				name       string
				srv        *Server
				body       string
				ctx        context.Context
				wantStatus int
				wantCode   string // "" means a 200 success
			}{
				{name: "valid", srv: std, body: validBody(ep), wantStatus: http.StatusOK},
				{name: "unknown db", srv: std, body: unknownDBBody(ep),
					wantStatus: http.StatusNotFound, wantCode: "unknown_db"},
				{name: "malformed json", srv: std, body: `{"db":`,
					wantStatus: http.StatusBadRequest, wantCode: "bad_json"},
				{name: "oversized body", srv: tinyBody,
					body:       `{"filler":"` + strings.Repeat("x", 200) + `"}`,
					wantStatus: http.StatusRequestEntityTooLarge, wantCode: "body_too_large"},
				{name: "canceled context", srv: std, body: validBody(ep), ctx: canceled,
					wantStatus: 499, wantCode: "canceled"},
				{name: "deadline exceeded", srv: tinyDeadline, body: validBody(ep),
					wantStatus: http.StatusGatewayTimeout, wantCode: "timeout"},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					rec := do(tc.srv, http.MethodPost, ep, tc.body, tc.ctx)
					if rec.Code != tc.wantStatus {
						t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.wantStatus, rec.Body.String())
					}
					if tc.wantCode == "" {
						if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
							t.Errorf("Content-Type = %q", ct)
						}
						return
					}
					if code := errCode(t, rec); code != tc.wantCode {
						t.Errorf("error code = %q, want %q", code, tc.wantCode)
					}
				})
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer()
	for _, ep := range endpoints {
		rec := do(s, http.MethodGet, ep, "", nil)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s GET status = %d, want 405", ep, rec.Code)
		}
		if code := errCode(t, rec); code != "method_not_allowed" {
			t.Errorf("%s GET code = %q", ep, code)
		}
	}
}

func TestInferValidation(t *testing.T) {
	s := newTestServer()
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"unknown model", `{"db":"ASIS","model":"gpt-99","question_id":1}`, 404, "unknown_model"},
		{"unknown question id", `{"db":"ASIS","question_id":100000}`, 404, "unknown_question"},
		{"unknown question text", `{"db":"ASIS","question":"what is the answer to everything?"}`, 404, "unknown_question"},
		{"missing question", `{"db":"ASIS"}`, 400, "missing_question"},
		{"bad variant", `{"db":"ASIS","variant":"super","question_id":1}`, 400, "bad_variant"},
		{"missing db", `{"question_id":1}`, 400, "missing_db"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(s, http.MethodPost, "/v1/infer", tc.body, nil)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body.String())
			}
			if code := errCode(t, rec); code != tc.code {
				t.Errorf("code = %q, want %q", code, tc.code)
			}
		})
	}
}

func TestInferByQuestionText(t *testing.T) {
	s := newTestServer()
	q := experiments.Questions("ASIS")[0]
	body, _ := json.Marshal(map[string]any{"db": "ASIS", "model": "gpt-4o", "variant": "native", "question": q.Text})
	rec := do(s, http.MethodPost, "/v1/infer", string(body), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp InferResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.QuestionID != q.ID || resp.SQL == "" {
		t.Errorf("resp = %+v, want question %d with non-empty SQL", resp, q.ID)
	}
}

func TestClassifyWholeDatabase(t *testing.T) {
	s := newTestServer()
	rec := do(s, http.MethodPost, "/v1/classify", `{"db":"ATBI"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("no results for a whole schema")
	}
	sum := resp.Regular + resp.Low + resp.Least
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %f", sum)
	}
	if resp.Combined < 0 || resp.Combined > 1 {
		t.Errorf("combined = %f", resp.Combined)
	}
}

func TestModifyCrosswalkRoundTrip(t *testing.T) {
	s := newTestServer()
	// Pick a native identifier and abbreviate it via the crosswalk…
	rec := do(s, http.MethodPost, "/v1/classify", `{"db":"ATBI"}`, nil)
	var cls ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cls); err != nil {
		t.Fatal(err)
	}
	native := cls.Results[0].Identifier
	body, _ := json.Marshal(map[string]any{"db": "ATBI", "op": "abbreviate", "identifier": native, "target": "least"})
	rec = do(s, http.MethodPost, "/v1/modify", string(body), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("abbreviate status = %d: %s", rec.Code, rec.Body.String())
	}
	var abbr ModifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &abbr); err != nil {
		t.Fatal(err)
	}
	if abbr.Source != "crosswalk" || abbr.Identifier == "" {
		t.Fatalf("abbreviate = %+v", abbr)
	}
	// …then expand the abbreviated form back to the native identifier.
	body, _ = json.Marshal(map[string]any{"db": "ATBI", "op": "expand", "identifier": abbr.Identifier})
	rec = do(s, http.MethodPost, "/v1/modify", string(body), nil)
	var exp ModifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &exp); err != nil {
		t.Fatal(err)
	}
	if exp.Identifier != native {
		t.Errorf("round trip: %q -> %q -> %q", native, abbr.Identifier, exp.Identifier)
	}

	// Unknown native identifiers 404.
	rec = do(s, http.MethodPost, "/v1/modify", `{"db":"ATBI","op":"abbreviate","identifier":"no_such_identifier"}`, nil)
	if rec.Code != http.StatusNotFound || errCode(t, rec) != "unknown_identifier" {
		t.Errorf("unknown identifier: status %d code %s", rec.Code, rec.Body.String())
	}

	// Bad op 400.
	rec = do(s, http.MethodPost, "/v1/modify", `{"op":"rewrite","identifier":"x"}`, nil)
	if rec.Code != http.StatusBadRequest || errCode(t, rec) != "bad_op" {
		t.Errorf("bad op: status %d body %s", rec.Code, rec.Body.String())
	}
}

func TestModifyMetadataGrounding(t *testing.T) {
	s := newTestServer()
	body := `{"op":"expand","identifier":"DtDs","metadata":{"DtDs":"the detection distance in meters from the observer"}}`
	rec := do(s, http.MethodPost, "/v1/modify", body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp ModifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "expander+metadata" {
		t.Errorf("source = %q", resp.Source)
	}
	got := strings.Join(resp.Words, " ")
	if got != "detection distance" {
		t.Errorf("expansion = %q, want \"detection distance\"", got)
	}
}

func TestLinkWithExecution(t *testing.T) {
	s := newTestServer()
	q := experiments.Questions("ASIS")[0]
	// Gold vs itself: perfect linking and a correct execution verdict.
	body, _ := json.Marshal(map[string]any{"db": "ASIS", "gold_sql": q.Gold, "pred_sql": q.Gold})
	rec := do(s, http.MethodPost, "/v1/link", string(body), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp LinkResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Valid || resp.F1 != 1 {
		t.Errorf("self-link = %+v", resp)
	}
	if resp.ExecCorrect == nil || !*resp.ExecCorrect {
		t.Errorf("self-link exec verdict = %v, want true", resp.ExecCorrect)
	}

	// Without a db there is no execution verdict.
	rec = do(s, http.MethodPost, "/v1/link", validBody("/v1/link"), nil)
	var noDB LinkResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &noDB); err != nil {
		t.Fatal(err)
	}
	if noDB.ExecCorrect != nil {
		t.Error("exec verdict should be absent without a db")
	}

	// Unparseable prediction: valid=false, zero scores, still 200.
	rec = do(s, http.MethodPost, "/v1/link", `{"gold_sql":"SELECT a FROM t","pred_sql":"not sql at all ((("}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("invalid-pred status = %d", rec.Code)
	}
	var invalid LinkResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &invalid); err != nil {
		t.Fatal(err)
	}
	if invalid.Valid {
		t.Error("unparseable prediction should be Valid=false")
	}
}

func TestResponseCache(t *testing.T) {
	s := New(Config{CacheEntries: 64, RequestTimeout: 30 * time.Second})
	body := validBody("/v1/infer")
	first := do(s, http.MethodPost, "/v1/infer", body, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("first status = %d: %s", first.Code, first.Body.String())
	}
	if h := first.Header().Get("X-Snails-Cache"); h != "miss" {
		t.Errorf("first cache header = %q, want miss", h)
	}
	second := do(s, http.MethodPost, "/v1/infer", body, nil)
	if h := second.Header().Get("X-Snails-Cache"); h != "hit" {
		t.Errorf("second cache header = %q, want hit", h)
	}
	if first.Body.String() != second.Body.String() {
		t.Error("cached response differs from computed response")
	}
	if s.cache.Hits() == 0 {
		t.Error("cache hit not counted")
	}
}

func TestHealthzAndDraining(t *testing.T) {
	s := newTestServer()
	rec := do(s, http.MethodGet, "/healthz", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Databases != 9 {
		t.Errorf("health = %+v", h)
	}

	s.BeginShutdown()
	rec = do(s, http.MethodGet, "/healthz", "", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", rec.Code)
	}
	rec = do(s, http.MethodPost, "/v1/classify", validBody("/v1/classify"), nil)
	if rec.Code != http.StatusServiceUnavailable || errCode(t, rec) != "draining" {
		t.Errorf("draining POST = %d %s", rec.Code, rec.Body.String())
	}
	s.Drain() // must not hang with nothing in flight
}

func TestMetricsz(t *testing.T) {
	s := newTestServer()
	for i := 0; i < 3; i++ {
		do(s, http.MethodPost, "/v1/link", validBody("/v1/link"), nil)
	}
	do(s, http.MethodPost, "/v1/link", `{"gold_sql":`, nil) // one error
	rec := do(s, http.MethodGet, "/metricsz", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metricsz = %d", rec.Code)
	}
	var m MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	// Exactly the 4 workload requests: the /metricsz pull itself must not
	// count (it is observability traffic, reported separately).
	if m.RequestsTotal != 4 {
		t.Errorf("requests_total = %d, want 4", m.RequestsTotal)
	}
	if m.ObservabilityTotal != 1 {
		t.Errorf("observability_requests_total = %d, want 1", m.ObservabilityTotal)
	}
	if m.ErrorsTotal != 1 {
		t.Errorf("errors_total = %d, want 1", m.ErrorsTotal)
	}
	if m.RequestsByPath["/v1/link"] != 4 {
		t.Errorf("by_path[/v1/link] = %d, want 4", m.RequestsByPath["/v1/link"])
	}
	if m.LatencyP99Millis < m.LatencyP50Millis {
		t.Errorf("p99 %f < p50 %f", m.LatencyP99Millis, m.LatencyP50Millis)
	}
}
