// Package server is the snailsd serving layer: a long-running HTTP JSON API
// exposing the SNAILS artifacts — NL-to-SQL inference with evaluation
// (/v1/infer), identifier naturalness classification (/v1/classify),
// identifier abbreviation/expansion (/v1/modify), and schema-linking scoring
// (/v1/link) — plus /healthz and /metricsz observability endpoints.
//
// The serving pipeline is built for sustained concurrent traffic:
//
//   - a bounded worker pool runs each /v1/infer pipeline, so load beyond
//     capacity queues briefly and then sheds with 503 instead of piling up
//     goroutines;
//   - concurrent identical cache misses share one pipeline run
//     (singleflight), and schema-prompt renders and parses are memoized
//     below the server, so requests share that work without waiting for
//     each other;
//   - a sharded clock-hand cache (internal/memo) memoizes whole responses
//     keyed by (endpoint, db, variant, body digest);
//   - /v1/infer is scored by the sweep's cell evaluator
//     (experiments.Evaluator), one bounded instance per server, which
//     memoizes each question's gold and prompts and each distinct
//     predicted query's execution;
//   - every request runs under a deadline (504 on expiry) and shutdown
//     runs every queued request before the process exits.
//
// Everything the server computes is deterministic, so cached, coalesced
// and concurrent responses are byte-identical to serial, uncached ones.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/experiments"
	"github.com/snails-bench/snails/internal/memo"
	"github.com/snails-bench/snails/internal/obs"
	"github.com/snails-bench/snails/internal/trace"
)

// Config parameterizes a Server. The zero value is production-ready; fields
// override individual knobs.
type Config struct {
	// RequestTimeout bounds each request's total latency (default 10s);
	// expiry answers 504.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB); larger answers 413.
	MaxBodyBytes int64
	// CacheEntries bounds the response cache (default 4096 entries, evicted
	// clock-hand); negative disables response caching.
	CacheEntries int
	// Workers sizes the inference worker pool (default GOMAXPROCS).
	Workers int
	// TraceBuffer bounds the in-memory ring of finished request traces
	// served at /debugz/traces (default 256 traces; negative disables
	// tracing entirely, including the per-stage histograms in /metricsz).
	TraceBuffer int
	// CanonicalLogEvery samples the canonical per-request wide log line
	// under load: every request emits it at debug, and every Nth completed
	// request is promoted to info, so a production log level still sees a
	// steady, representative trickle (default 256; negative disables the
	// promotion and leaves every line at debug).
	CanonicalLogEvery int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default; snailsd's -pprof flag sets it).
	EnablePprof bool
	// ShardID, when non-empty, is stamped on every response as the
	// X-Snails-Shard header. Cluster workers set it so the byte-identity
	// guarantee can be checked modulo shard attribution (bodies identical,
	// only the header differs).
	ShardID string
	// Backends pre-registers decode backends by name (config-driven
	// deployments: wire backends, renamed synthetics). Synthetic profiles
	// not listed here remain reachable by profile name — they are built
	// lazily on first use, preserving the classic /v1/infer surface.
	Backends []backend.Backend
	// Logger receives the server's structured logs (access records at debug,
	// 5xx responses at warn). Defaults to slog.Default(), so a binary that
	// installs an obs.NewLogger as the process default gets request-scoped
	// attributes on every record without further wiring.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 256
	}
	if c.CanonicalLogEvery == 0 {
		c.CanonicalLogEvery = 256
	}
	return c
}

// cachedResponse is one memoized response body.
type cachedResponse struct {
	status int
	body   []byte
}

// Server implements http.Handler for the snailsd API.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *metrics
	logger  *slog.Logger

	// reg is this server's metrics registry, scraped at GET /metrics. It is
	// per-Server (not process-global) so tests building many Servers never
	// collide on family names; process-wide counters (sqlexec, sweep
	// outcomes, runtime) are exposed through scrape-time callbacks.
	reg      *obs.Registry
	verdicts *obs.CounterVec // /v1/infer evaluation verdicts

	cache *memo.Cache[cachedResponse] // nil when caching is disabled
	// flight coalesces concurrent identical cache misses: the leader runs
	// the pipeline, followers receive its bytes through the flight (nil when
	// caching is disabled — the flight shares exactly what the cache would
	// have served a moment later, so the two are enabled together).
	flight *memo.Group[cachedResponse]
	// eval scores /v1/infer cells and executes /v1/link queries. It is this
	// server's own, so a fresh server (a new cluster shard) starts with
	// empty gold and execution memos.
	eval *experiments.Evaluator

	// traces collects finished request traces and per-stage histograms;
	// nil when tracing is disabled (every hook no-ops on nil).
	traces *trace.Collector

	pool *pool

	// backendsMu guards the decode-backend registry: configured backends
	// at construction, synthetic profiles lazily on first request. Reads
	// vastly outnumber writes (every /v1/infer resolves a backend), so the
	// steady-state lookup takes only the read lock.
	backendsMu sync.RWMutex
	backends   map[string]backend.Backend

	// canonSeq numbers completed requests for canonical-log sampling.
	canonSeq atomic.Uint64

	draining  chan struct{} // closed when shutdown begins
	drainOnce sync.Once
}

// New constructs a Server. Databases and the classifier are built lazily on
// first touch, or eagerly via Preload.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		metrics:  newMetrics(),
		logger:   cfg.Logger,
		backends: map[string]backend.Backend{},
		draining: make(chan struct{}),
	}
	for _, be := range cfg.Backends {
		s.backends[be.Name()] = be
	}
	// Any injected logger is routed through the obs context middleware so
	// request-scoped attrs (trace_id, db, variant) reach its records; loggers
	// built by obs.NewLogger pass through unchanged.
	s.logger = obs.ContextLogger(s.logger)
	if cfg.CacheEntries > 0 {
		s.cache = memo.NewBounded[cachedResponse](cfg.CacheEntries)
		s.flight = &memo.Group[cachedResponse]{}
	}
	if cfg.TraceBuffer > 0 {
		s.traces = trace.NewCollector(cfg.TraceBuffer)
		// Attribute this process's span groups in stitched cluster traces.
		if cfg.ShardID != "" {
			s.traces.SetProcess(cfg.ShardID)
		} else {
			s.traces.SetProcess("server")
		}
	}
	// Both memos are bounded: /v1/link accepts arbitrary caller SQL, so the
	// execution memo has an unbounded key space in a long-running daemon.
	s.eval = experiments.NewEvaluator(1<<13, 1<<14)
	// The queue holds one job per /v1/infer request, so it is sized in
	// requests: a burst of about a thousand concurrent requests queues
	// instead of shedding, and at sub-millisecond service times even a full
	// queue drains well inside the request deadline.
	s.pool = newPool(cfg.Workers, 64*cfg.Workers+1024)
	s.registerMetrics()

	s.mux.HandleFunc("/v1/infer", s.post(pathInfer, s.handleInfer))
	s.mux.HandleFunc("/v1/classify", s.post(pathClassify, s.handleClassify))
	s.mux.HandleFunc("/v1/modify", s.post(pathModify, s.handleModify))
	s.mux.HandleFunc("/v1/link", s.post(pathLink, s.handleLink))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	s.mux.HandleFunc("/debugz/traces", s.handleDebugTraces)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Preload builds every benchmark database, trains the classifier, and
// constructs every synthetic decode backend so the first request pays no
// cold-start cost (model construction is the single largest lazy build —
// ~100 ms for the richest profile — and would otherwise serialize the
// first burst of traffic behind the registry lock).
func (s *Server) Preload() {
	for _, b := range datasets.All() {
		experiments.Questions(b.Name)
	}
	experiments.TrainedClassifier()
	for _, name := range experiments.ModelNames() {
		s.backendFor(name)
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.ShardID != "" {
		w.Header().Set("X-Snails-Shard", s.cfg.ShardID)
	}
	s.mux.ServeHTTP(w, r)
}

// BeginShutdown flips /healthz to draining (so load balancers stop routing
// here) and rejects new API requests with 503. Safe to call more than once.
func (s *Server) BeginShutdown() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// Drain stops the worker pool after running every queued job, so work
// accepted before shutdown still finishes. Call after the HTTP listener has
// stopped accepting connections (http.Server.Shutdown) to finish a graceful
// exit.
func (s *Server) Drain() {
	s.BeginShutdown()
	s.pool.close()
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Sentinel API errors shared across handlers.
var (
	errOverloaded  = errorf(http.StatusServiceUnavailable, "overloaded", "server is saturated; retry with backoff")
	errDrainingAPI = errorf(http.StatusServiceUnavailable, "draining", "server is shutting down")
)

// handlerFunc is one POST endpoint's logic: it receives the decoded request
// and returns a response document or an API error.
type handlerFunc func(ctx context.Context, req *apiRequest) (any, *apiError)

// statusWriter records the status code a handler writes so the access log
// and metrics can see it after the fact.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// post wraps an endpoint with the shared serving concerns: method check,
// body cap, request deadline, response cache, metrics, access logging, and
// uniform error rendering.
func (s *Server) post(path int, h handlerFunc) http.HandlerFunc {
	endpoint := scrapePaths[path]
	return func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.byPath[path].Add(1)
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)

		w := &statusWriter{ResponseWriter: rw, status: http.StatusOK}
		logCtx := r.Context()
		var (
			tr           *trace.Trace
			cacheVerdict = "off"
			model        string
			matchVerdict string
		)
		defer func() {
			d := time.Since(start)
			s.metrics.dur.Observe(d)
			// The canonical wide line: one record per completed request with
			// everything needed to debug it in isolation (trace_id, db, and
			// variant ride in as context attrs). It goes out at debug so
			// sustained traffic costs one disabled-level check per request;
			// server faults surface at warn, and every CanonicalLogEvery-th
			// request is promoted to info — the sampled-under-load trickle
			// that keeps a production log level representative without the
			// full firehose.
			lvl := slog.LevelDebug
			if w.status >= http.StatusInternalServerError {
				lvl = slog.LevelWarn
			} else if every := s.cfg.CanonicalLogEvery; every > 0 && s.canonSeq.Add(1)%uint64(every) == 0 {
				lvl = slog.LevelInfo
			}
			if !s.logger.Enabled(logCtx, lvl) {
				return
			}
			attrs := make([]slog.Attr, 0, 8)
			attrs = append(attrs,
				slog.String("path", endpoint),
				slog.Int("status", w.status),
				slog.Float64("dur_ms", float64(d)/float64(time.Millisecond)),
				slog.String("cache", cacheVerdict))
			if s.cfg.ShardID != "" {
				attrs = append(attrs, slog.String("shard", s.cfg.ShardID))
			}
			if model != "" {
				attrs = append(attrs, slog.String("backend", model))
			}
			if matchVerdict != "" {
				attrs = append(attrs, slog.String("match", matchVerdict))
			}
			if tr != nil {
				attrs = append(attrs, slog.String("stages_us", stageMicros(tr)))
			}
			s.logger.LogAttrs(logCtx, lvl, "request served", attrs...)
		}()

		if r.Method != http.MethodPost {
			s.writeError(w, errorf(http.StatusMethodNotAllowed, "method_not_allowed", "%s requires POST", endpoint))
			return
		}
		if s.isDraining() {
			s.writeError(w, errDrainingAPI)
			return
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()

		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		var req apiRequest
		dec := json.NewDecoder(r.Body)
		if err := dec.Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				s.writeError(w, errorf(http.StatusRequestEntityTooLarge, "body_too_large",
					"request body exceeds %d bytes", tooBig.Limit))
				return
			}
			s.writeError(w, errorf(http.StatusBadRequest, "bad_json", "malformed request body: %v", err))
			return
		}
		if dec.More() {
			s.writeError(w, errorf(http.StatusBadRequest, "bad_json", "trailing data after JSON body"))
			return
		}

		// Request-scoped log attributes apply to every record below — the
		// canonical completion line included, so cache hits still log their
		// db/variant.
		var attrs []slog.Attr
		if req.DB != "" {
			attrs = append(attrs, slog.String("db", req.DB))
		}
		if req.Variant != "" {
			attrs = append(attrs, slog.String("variant", req.Variant))
		}
		if len(attrs) > 0 {
			ctx = obs.ContextAttrs(ctx, attrs...)
			logCtx = ctx
		}

		key := s.cacheKey(endpoint, &req)
		if s.cache != nil {
			if hit, ok := s.cache.Get(key); ok {
				cacheVerdict = "hit"
				w.Header().Set("X-Snails-Cache", "hit")
				s.writeJSON(w, hit.status, hit.body)
				return
			}
			cacheVerdict = "miss"
			w.Header().Set("X-Snails-Cache", "miss")
		}

		// A request that arrives already expired (or canceled) never reaches
		// the pipeline.
		if err := ctx.Err(); err != nil {
			s.writeError(w, ctxError(err))
			return
		}

		// compute runs the full pipeline for this request: trace, handler,
		// encode, cache fill. It is the singleflight leader's unit of work;
		// ok=false (handler or encode error) tells parked followers the result
		// is not shareable — one of them re-runs it as the new leader, so a
		// canceled or failed leader never poisons the whole flight. Error
		// details land in leaderErr, which only the leader itself reads.
		//
		// Tracing covers the computed path only: cache hits and coalesced
		// followers replay bytes and would produce empty traces. A propagated
		// X-Snails-Trace header (the cluster router relaying this request) is
		// adopted so this process's spans stitch under the router's trace;
		// otherwise a fresh wire ID is minted. Either way the ID is echoed on
		// the response and stamped into the log attributes, and the trace
		// rides the context so pipeline layers record their stages onto it.
		var leaderErr *apiError
		compute := func() (cachedResponse, bool) {
			if remoteID, ok := trace.Extract(r.Header); ok {
				tr = s.traces.StartRemote(endpoint, remoteID)
			} else {
				tr = s.traces.Start(endpoint)
			}
			cctx := ctx
			if tr != nil {
				cctx = trace.NewContext(cctx, tr)
				tid := trace.FormatID(tr.TraceID)
				w.Header().Set(trace.Header, tid)
				cctx = obs.ContextAttrs(cctx,
					slog.Uint64("request_id", tr.ID),
					slog.String("trace_id", tid))
				logCtx = cctx
			}
			doc, apiErr := h(cctx, &req)
			s.traces.Finish(tr)
			if ir, ok := doc.(InferResponse); ok {
				model = ir.Model
				switch {
				case !ir.Valid:
					matchVerdict = "invalid"
				case ir.ExecCorrect:
					matchVerdict = "correct"
				default:
					matchVerdict = "incorrect"
				}
			}
			if apiErr != nil {
				leaderErr = apiErr
				return cachedResponse{}, false
			}
			body, err := encodeBody(doc)
			if err != nil {
				leaderErr = errorf(http.StatusInternalServerError, "encode_failed", "encoding response: %v", err)
				return cachedResponse{}, false
			}
			res := cachedResponse{status: http.StatusOK, body: body}
			if s.cache != nil {
				s.cache.Put(key, res)
			}
			return res, true
		}

		if s.flight == nil {
			res, ok := compute()
			if !ok {
				s.writeError(w, leaderErr)
				return
			}
			s.writeJSON(w, res.status, res.body)
			return
		}
		res, ok, shared, err := s.flight.Do(ctx, key, compute)
		if err != nil {
			// This request's own context ended while parked behind a leader.
			s.writeError(w, ctxError(err))
			return
		}
		if !ok {
			// Only a leader sees ok=false (followers hand off and re-lead), so
			// leaderErr is this goroutine's own handler error.
			s.writeError(w, leaderErr)
			return
		}
		if shared {
			s.metrics.coalesced.Add(1)
			cacheVerdict = "coalesced"
			w.Header().Set("X-Snails-Cache", "coalesced")
		}
		s.writeJSON(w, res.status, res.body)
	}
}

// stageMicros renders a finished trace's spans as a compact
// "stage[tag]:micros" list for the canonical log line, e.g.
// "queue:41 prompt_render:220 llm_decode:8114 backend_attempt[gpt-4o#0]:8010".
// Only called when the record's level is enabled, so the string build is off
// the disabled-logging hot path.
func stageMicros(tr *trace.Trace) string {
	var b strings.Builder
	for i, sp := range tr.Spans() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(sp.Stage.String())
		if sp.Tag != "" {
			b.WriteByte('[')
			b.WriteString(sp.Tag)
			b.WriteByte(']')
		}
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(int64(sp.Dur/time.Microsecond), 10))
	}
	return b.String()
}

// cacheKey derives the response-cache key from the endpoint, the request's
// addressing fields, and a digest of its full canonical encoding.
func (s *Server) cacheKey(endpoint string, req *apiRequest) string {
	canonical, _ := json.Marshal(req)
	sum := sha256.Sum256(canonical)
	return fmt.Sprintf("%s|%s|%s|%x", endpoint, req.DB, req.Variant, sum[:16])
}

// ctxError maps a context error to its HTTP rendering: 504 for an expired
// deadline, 499 (nginx's client-closed-request) for a canceled caller.
func ctxError(err error) *apiError {
	if errors.Is(err, context.DeadlineExceeded) {
		return errorf(http.StatusGatewayTimeout, "timeout", "request deadline exceeded")
	}
	return &apiError{Status: 499, Code: "canceled", Message: "client canceled the request"}
}

// encPool recycles JSON encode buffers across requests so the hot path's
// only per-response allocation is the owned copy handed to the cache and
// the singleflight (whose lifetime outlives the pooled buffer).
var encPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeBody marshals doc through a pooled buffer and returns an owned
// slice that already carries the trailing newline the API emits —
// json.Encoder's output is exactly json.Marshal's plus '\n', so cached,
// coalesced, and direct responses stay byte-identical to the historical
// append(body, '\n') framing without re-copying the body per write.
func encodeBody(doc any) ([]byte, error) {
	buf := encPool.Get().(*bytes.Buffer)
	defer encPool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(doc); err != nil {
		return nil, err
	}
	return bytes.Clone(buf.Bytes()), nil
}

// writeDoc marshals and writes a response document (used by the GET
// observability endpoints, which bypass the POST wrapper).
func (s *Server) writeDoc(w http.ResponseWriter, status int, doc any) {
	body, err := encodeBody(doc)
	if err != nil {
		s.writeError(w, errorf(http.StatusInternalServerError, "encode_failed", "encoding response: %v", err))
		return
	}
	s.writeJSON(w, status, body)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if n := len(body); n > 0 && body[n-1] == '\n' {
		// Already newline-framed (the pooled encode path): write as-is
		// instead of the old append(body, '\n'), which copied the whole
		// body on every response — cache hits included.
		w.Write(body)
		return
	}
	w.Write(body)
	io.WriteString(w, "\n")
}

func (s *Server) writeError(w http.ResponseWriter, e *apiError) {
	s.metrics.errors.Add(1)
	if e.Status == http.StatusGatewayTimeout {
		s.metrics.timeouts.Add(1)
	}
	body, _ := json.Marshal(struct {
		Error *apiError `json:"error"`
	}{e})
	s.writeJSON(w, e.Status, body)
}
