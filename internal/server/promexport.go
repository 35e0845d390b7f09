package server

import (
	"net/http"
	"time"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/experiments"
	"github.com/snails-bench/snails/internal/obs"
	"github.com/snails-bench/snails/internal/schema"
	"github.com/snails-bench/snails/internal/sqlexec"
	"github.com/snails-bench/snails/internal/trace"
)

// registerMetrics builds the server's registry. Families fall into three
// groups: counters owned by this Server (HTTP, cache, pool), reads
// of process-wide tallies owned by other packages (sqlexec, sweep outcomes,
// Go runtime), and histogram views over the trace collector. Everything is
// registered once at construction; scrapes only read.
func (s *Server) registerMetrics() {
	r := obs.NewRegistry()
	s.reg = r
	m := s.metrics

	// --- HTTP serving ---------------------------------------------------
	pathSeries := make([]obs.Series, len(scrapePaths))
	for i, p := range scrapePaths {
		n := &m.byPath[i]
		pathSeries[i] = obs.Series{
			Labels: []obs.Label{{Name: "path", Value: p}},
			F:      func() float64 { return float64(n.Load()) },
		}
	}
	r.CounterSeries("snails_http_requests_total", "Requests received, by path.", pathSeries...)
	r.CounterFunc("snails_http_errors_total", "Responses with status >= 400.",
		func() float64 { return float64(m.errors.Load()) })
	r.CounterFunc("snails_http_timeouts_total", "Requests answered 504 (deadline expired).",
		func() float64 { return float64(m.timeouts.Load()) })
	r.GaugeFunc("snails_http_inflight", "API requests currently being served.",
		func() float64 { return float64(m.inflight.Load()) })
	r.HistogramSeriesFamily("snails_http_request_duration_seconds",
		"API request latency, including queueing.",
		obs.HistogramSeries{H: &m.dur})
	r.GaugeFunc("snails_uptime_seconds", "Seconds since the server was constructed.",
		func() float64 { return time.Since(m.start).Seconds() })

	// --- memo caches ----------------------------------------------------
	// Three cache classes: whole responses, and the two memos of the
	// server's evaluator: "gold" is the per-question inputs memo (gold
	// result, identifiers and prompts; one lookup per /v1/infer
	// evaluation), "pred" the query-execution memo (one lookup per parsed
	// prediction and per /v1/link query). The response class reads the
	// response cache's own counters, as /metricsz does (a nil cache means
	// response caching is disabled and stays at zero).
	counterBy := func(label string, f func() uint64) obs.Series {
		return obs.Series{
			Labels: []obs.Label{{Name: "cache", Value: label}},
			F:      func() float64 { return float64(f()) },
		}
	}
	respStat := func(f func() uint64) func() uint64 {
		return func() uint64 {
			if s.cache == nil {
				return 0
			}
			return f()
		}
	}
	gold, pred := s.eval.GoldMemo(), s.eval.PredMemo()
	r.CounterSeries("snails_cache_hits_total", "Cache lookups that found their key, by cache class.",
		counterBy("response", respStat(func() uint64 { return s.cache.Hits() })),
		counterBy("gold", gold.Hits),
		counterBy("pred", pred.Hits),
	)
	r.CounterSeries("snails_cache_misses_total", "Cache lookups that missed, by cache class.",
		counterBy("response", respStat(func() uint64 { return s.cache.Misses() })),
		counterBy("gold", gold.Misses),
		counterBy("pred", pred.Misses),
	)
	r.CounterSeries("snails_cache_evictions_total", "Entries displaced by the clock hand, by cache class.",
		counterBy("response", respStat(func() uint64 { return s.cache.Evictions() })),
		counterBy("gold", gold.Evictions),
		counterBy("pred", pred.Evictions),
	)
	r.GaugeSeries("snails_cache_entries", "Entries currently resident, by cache class.",
		counterBy("response", respStat(func() uint64 { return uint64(s.cache.Len()) })),
		counterBy("gold", func() uint64 { return uint64(gold.Len()) }),
		counterBy("pred", func() uint64 { return uint64(pred.Len()) }),
	)
	r.CounterFunc("snails_cache_coalesced_total",
		"Response-cache misses served from another request's in-flight compute (a subset of response misses).",
		func() float64 { return float64(m.coalesced.Load()) })

	// --- worker pool -----------------------------------------------------
	r.GaugeFunc("snails_pool_workers", "Size of the inference worker pool.",
		func() float64 { return float64(s.pool.workers) })
	r.GaugeFunc("snails_pool_busy_workers", "Workers currently running an inference job.",
		func() float64 { return float64(s.pool.busy.Load()) })
	r.GaugeFunc("snails_pool_queue_depth", "Inference jobs queued for a free worker.",
		func() float64 { return float64(len(s.pool.jobs)) })
	r.GaugeFunc("snails_pool_queue_capacity", "Bound of the worker pool queue.",
		func() float64 { return float64(cap(s.pool.jobs)) })
	r.CounterFunc("snails_pool_rejections_total", "Inference jobs refused because the pool was saturated or closed.",
		func() float64 { return float64(s.pool.rejected.Load()) })

	// --- inference evaluation --------------------------------------------
	s.verdicts = r.CounterVec("snails_infer_verdicts_total",
		"Completed /v1/infer evaluations by verdict.", "verdict")
	for _, v := range []string{"correct", "incorrect", "invalid"} {
		s.verdicts.With(v)
	}

	// --- pipeline stages --------------------------------------------------
	if s.traces != nil {
		stageSeries := make([]obs.HistogramSeries, 0, trace.NumStages)
		for st := trace.Stage(0); st < trace.NumStages; st++ {
			stageSeries = append(stageSeries, obs.HistogramSeries{
				Labels: []obs.Label{{Name: "stage", Value: st.String()}},
				H:      s.traces.StageHistogram(st),
			})
		}
		r.HistogramSeriesFamily("snails_stage_duration_seconds",
			"Pipeline stage latency from the trace collector.", stageSeries...)
	}

	// --- model backends (seventh pipeline concern) --------------------------
	r.CounterSeries("snails_backend_requests_total",
		"Backend Infer calls process-wide, by outcome.",
		obs.Series{Labels: []obs.Label{{Name: "outcome", Value: "ok"}},
			F: func() float64 { return float64(backend.ReadStats().RequestsOK) }},
		obs.Series{Labels: []obs.Label{{Name: "outcome", Value: "error"}},
			F: func() float64 { return float64(backend.ReadStats().RequestsError) }})
	r.CounterFunc("snails_backend_retries_total",
		"HTTP backend re-sends after retryable failures.",
		func() float64 { return float64(backend.ReadStats().Retries) })
	r.CounterFunc("snails_backend_fence_failures_total",
		"Chat completions with no SQL fence (the whole message was taken as SQL).",
		func() float64 { return float64(backend.ReadStats().FenceFailures) })
	r.HistogramSeriesFamily("snails_backend_backoff_seconds",
		"Retry backoff sleeps between backend attempts.",
		obs.HistogramSeries{H: backend.BackoffHistogram()})

	// --- tracing health -----------------------------------------------------
	r.CounterFunc("snails_trace_spans_dropped_total",
		"Spans dropped process-wide because a trace's span slab was full.",
		func() float64 { return float64(trace.SpansDropped()) })

	// --- process-wide tallies ---------------------------------------------
	r.CounterFunc("snails_sqlexec_queries_total", "Top-level SQL statements executed process-wide.",
		func() float64 { return float64(sqlexec.Stats().Queries) })
	r.CounterFunc("snails_sqlexec_parse_failures_total", "SQL strings that failed to parse.",
		func() float64 { return float64(sqlexec.Stats().ParseFailures) })
	r.CounterFunc("snails_sqlexec_exec_failures_total", "Parsed statements that failed during execution.",
		func() float64 { return float64(sqlexec.Stats().ExecFailures) })
	r.CounterFunc("snails_sqlexec_rows_returned_total", "Result rows produced by successful statements.",
		func() float64 { return float64(sqlexec.Stats().RowsReturned) })

	sweepSeries := make([]obs.Series, 0, len(schema.Variants)*len(experiments.Outcomes))
	for _, v := range schema.Variants {
		for _, o := range experiments.Outcomes {
			v, o := v, o
			sweepSeries = append(sweepSeries, obs.Series{
				Labels: []obs.Label{{Name: "variant", Value: v.String()}, {Name: "outcome", Value: o}},
				F:      func() float64 { return float64(experiments.CellOutcome(v, o)) },
			})
		}
	}
	r.CounterSeries("snails_sweep_cells_total",
		"Sweep cells evaluated process-wide, by schema variant and outcome.", sweepSeries...)

	r.RegisterRuntime()
}

// handleMetrics serves the registry in Prometheus text format v0.0.4.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.byPath[pathMetrics].Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		s.writeError(w, errorf(http.StatusMethodNotAllowed, "method_not_allowed", "/metrics requires GET"))
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	if r.Method == http.MethodHead {
		return
	}
	if err := s.reg.WriteText(w); err != nil {
		// The connection is gone mid-scrape; nothing useful to write.
		s.logger.Debug("metrics scrape aborted", "err", err)
	}
}
