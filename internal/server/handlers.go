package server

import (
	"context"
	"net/http"
	"strconv"
	"strings"

	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/evalx"
	"github.com/snails-bench/snails/internal/experiments"
	"github.com/snails-bench/snails/internal/ident"
	"github.com/snails-bench/snails/internal/modifier"
	"github.com/snails-bench/snails/internal/naturalness"
	"github.com/snails-bench/snails/internal/nlq"
	"github.com/snails-bench/snails/internal/trace"
)

// lookupDB resolves a request's db field, answering 404 with the known names
// on a miss and 400 when the field is required but absent.
func lookupDB(name string, required bool) (*datasets.Built, *apiError) {
	if strings.TrimSpace(name) == "" {
		if !required {
			return nil, nil
		}
		return nil, errorf(http.StatusBadRequest, "missing_db", "field \"db\" is required")
	}
	b, ok := datasets.Get(name)
	if !ok {
		return nil, errorf(http.StatusNotFound, "unknown_db", "unknown database %q (have %s)",
			name, strings.Join(datasets.Names, ", "))
	}
	return b, nil
}

// findQuestion resolves a benchmark question by id or exact text.
func findQuestion(b *datasets.Built, req *apiRequest) (nlq.Question, *apiError) {
	qs := experiments.Questions(b.Name)
	if req.QuestionID > 0 {
		for _, q := range qs {
			if q.ID == req.QuestionID {
				return q, nil
			}
		}
		return nlq.Question{}, errorf(http.StatusNotFound, "unknown_question",
			"%s has no question #%d (1..%d)", b.Name, req.QuestionID, len(qs))
	}
	text := strings.TrimSpace(req.Question)
	if text == "" {
		return nlq.Question{}, errorf(http.StatusBadRequest, "missing_question",
			"provide \"question_id\" or \"question\"")
	}
	for _, q := range qs {
		if strings.EqualFold(strings.TrimSpace(q.Text), text) {
			return q, nil
		}
	}
	return nlq.Question{}, errorf(http.StatusNotFound, "unknown_question",
		"%s has no benchmark question matching %q (inference needs a gold query to evaluate against)", b.Name, text)
}

// handleInfer serves one NL-to-SQL round with full evaluation. The pipeline
// runs as one job on the worker pool and the handler parks on the outcome
// channel under the request deadline.
func (s *Server) handleInfer(ctx context.Context, req *apiRequest) (any, *apiError) {
	b, apiErr := lookupDB(req.DB, true)
	if apiErr != nil {
		return nil, apiErr
	}
	model := req.Model
	if model == "" {
		model = "gpt-4o"
	}
	be, apiErr := s.backendFor(model)
	if apiErr != nil {
		return nil, apiErr
	}
	v, err := parseVariant(req.Variant)
	if err != nil {
		return nil, errorf(http.StatusBadRequest, "bad_variant", "%v", err)
	}
	q, apiErr := findQuestion(b, req)
	if apiErr != nil {
		return nil, apiErr
	}

	tr := trace.FromContext(ctx)
	tr.SetRequest(b.Name, v.String(), q.ID)
	out := make(chan inferOutcome, 1) // buffered: the job never blocks on a gone waiter
	queued := tr.Now()
	if !s.pool.submit(func() {
		tr.Span(trace.StageQueue, queued)
		resp, err := s.runInfer(b, v, q, be, tr)
		out <- inferOutcome{resp: resp, err: err}
	}) {
		return nil, errOverloaded
	}
	select {
	case o := <-out:
		if o.err != nil {
			return nil, o.err
		}
		return o.resp, nil
	case <-ctx.Done():
		// The job keeps running (its result still warms the caches); only
		// this waiter gives up.
		return nil, ctxError(ctx.Err())
	}
}

// handleClassify scores identifier naturalness: either ad-hoc identifiers
// from the request or a whole benchmark schema when db is set.
func (s *Server) handleClassify(ctx context.Context, req *apiRequest) (any, *apiError) {
	b, apiErr := lookupDB(req.DB, false)
	if apiErr != nil {
		return nil, apiErr
	}
	var ids []string
	switch {
	case b != nil:
		ids = b.Schema.UniqueIdentifiers()
	case len(req.Identifiers) > 0:
		ids = req.Identifiers
	case strings.TrimSpace(req.Identifier) != "":
		ids = []string{req.Identifier}
	default:
		return nil, errorf(http.StatusBadRequest, "missing_identifier",
			"provide \"identifier\", \"identifiers\", or \"db\"")
	}

	clf := experiments.TrainedClassifier()
	resp := ClassifyResponse{DB: req.DB, Results: make([]ClassifiedIdentifier, 0, len(ids))}
	levels := make([]naturalness.Level, 0, len(ids))
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, ctxError(err)
		}
		l := clf.Classify(id)
		levels = append(levels, l)
		resp.Results = append(resp.Results, ClassifiedIdentifier{
			Identifier: id, Level: l.String(), Label: l.Label(),
		})
	}
	resp.Regular, resp.Low, resp.Least = naturalness.Proportions(levels)
	resp.Combined = naturalness.CombinedOf(levels)
	return resp, nil
}

// handleModify lowers or raises identifier naturalness. With a db the
// crosswalk provides the exact benchmark mapping; without one the generic
// abbreviator / metadata-RAG expander run on the request's own inputs.
func (s *Server) handleModify(ctx context.Context, req *apiRequest) (any, *apiError) {
	b, apiErr := lookupDB(req.DB, false)
	if apiErr != nil {
		return nil, apiErr
	}
	op := strings.ToLower(strings.TrimSpace(req.Op))
	switch op {
	case "abbreviate":
		target, err := parseTarget(req.Target, naturalness.Least)
		if err != nil {
			return nil, errorf(http.StatusBadRequest, "bad_target", "%v", err)
		}
		if b != nil {
			native := strings.TrimSpace(req.Identifier)
			if native == "" {
				return nil, errorf(http.StatusBadRequest, "missing_identifier",
					"crosswalk abbreviation needs \"identifier\" (a native identifier of %s)", b.Name)
			}
			if _, ok := b.Schema.Crosswalk.Lookup(native); !ok {
				return nil, errorf(http.StatusNotFound, "unknown_identifier",
					"%q is not a native identifier of %s", native, b.Name)
			}
			return ModifyResponse{
				Op: op, Identifier: b.Schema.Crosswalk.ToLevel(native, target),
				Grounded: true, Source: "crosswalk",
			}, nil
		}
		if len(req.Words) == 0 {
			return nil, errorf(http.StatusBadRequest, "missing_words",
				"abbreviation needs \"words\" (the concept as lower-case full words) or a \"db\" + \"identifier\"")
		}
		return ModifyResponse{
			Op: op, Identifier: modifier.Abbreviate(req.Words, target, ident.CaseSnake),
			Grounded: true, Source: "abbreviator",
		}, nil

	case "expand":
		id := strings.TrimSpace(req.Identifier)
		if id == "" {
			return nil, errorf(http.StatusBadRequest, "missing_identifier", "expansion needs \"identifier\"")
		}
		if b != nil {
			// Try the crosswalk at each modified level, most-abbreviated
			// first: a Least/Low/Regular form maps straight back to native.
			for _, l := range []naturalness.Level{naturalness.Least, naturalness.Low, naturalness.Regular} {
				if native := b.Schema.Crosswalk.ToNative(id, l); native != id {
					return ModifyResponse{Op: op, Identifier: native,
						Words: ident.Words(native), Grounded: true, Source: "crosswalk"}, nil
				}
			}
		}
		e := &modifier.Expander{}
		source := "expander"
		if len(req.Metadata) > 0 {
			idx := modifier.NewMetadataIndex()
			for k, desc := range req.Metadata {
				idx.Add(k, desc)
			}
			e.Metadata = idx
			source = "expander+metadata"
		}
		if err := ctx.Err(); err != nil {
			return nil, ctxError(err)
		}
		words, ok := e.Expand(id)
		return ModifyResponse{Op: op, Identifier: id, Words: words, Grounded: ok, Source: source}, nil

	default:
		return nil, errorf(http.StatusBadRequest, "bad_op",
			"unknown op %q (want \"abbreviate\" or \"expand\")", req.Op)
	}
}

// handleLink scores a candidate query's schema linking against a gold query;
// with a db it also reports the relaxed execution-match verdict.
func (s *Server) handleLink(ctx context.Context, req *apiRequest) (any, *apiError) {
	b, apiErr := lookupDB(req.DB, false)
	if apiErr != nil {
		return nil, apiErr
	}
	if strings.TrimSpace(req.GoldSQL) == "" || strings.TrimSpace(req.PredSQL) == "" {
		return nil, errorf(http.StatusBadRequest, "missing_sql", "both \"gold_sql\" and \"pred_sql\" are required")
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxError(err)
	}
	link := evalx.QueryLinkingSQL(req.GoldSQL, req.PredSQL)
	resp := LinkResponse{Valid: link.Valid, Recall: link.Recall, Precision: link.Precision, F1: link.F1}
	if b != nil && link.Valid {
		gold, err := s.goldSQLResult(ctx, b, req.GoldSQL)
		if err != nil {
			return nil, errorf(http.StatusBadRequest, "gold_failed", "gold query failed on %s: %v", b.Name, err)
		}
		correct := false
		if pred := s.predResult(ctx, b, req.PredSQL); pred != nil {
			tr := trace.FromContext(ctx)
			t0 := tr.Now()
			correct = evalx.CompareResults(gold, pred) == evalx.MatchYes
			tr.Span(trace.StageMatch, t0)
		}
		resp.ExecCorrect = &correct
	}
	return resp, nil
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers rotate it out during graceful shutdown.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: s.metrics.snapshot(0, 0).UptimeSeconds,
		Databases:     len(datasets.Names),
	}
	status := http.StatusOK
	if s.isDraining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	s.writeDoc(w, status, resp)
}

// handleDebugTraces serves the bounded ring of finished request traces as
// JSON: the last n traces in completion order, the n slowest when
// ?slowest=1, or the traces carrying one wire trace ID when ?id= is given
// (the cluster router's stitching fan-out uses this). Tracing disabled
// (TraceBuffer < 0) answers 404 so probes can tell "off" from "idle".
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	s.metrics.countEndpoint("/debugz/traces")
	if s.traces == nil {
		s.writeError(w, errorf(http.StatusNotFound, "tracing_disabled",
			"request tracing is disabled (start with a non-negative trace buffer)"))
		return
	}
	if v := r.URL.Query().Get("id"); v != "" {
		id, ok := trace.ParseID(v)
		if !ok {
			s.writeError(w, errorf(http.StatusBadRequest, "bad_id",
				"query parameter id must be 16 lowercase hex digits"))
			return
		}
		views := s.traces.Find(id)
		if views == nil {
			views = []trace.View{}
		}
		s.writeDoc(w, http.StatusOK, TracesResponse{Traces: views, TraceID: v})
		return
	}
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			s.writeError(w, errorf(http.StatusBadRequest, "bad_n", "query parameter n must be a non-negative integer"))
			return
		}
		n = parsed
	}
	slowest := false
	switch v := r.URL.Query().Get("slowest"); v {
	case "", "0", "false":
	case "1", "true":
		slowest = true
	default:
		s.writeError(w, errorf(http.StatusBadRequest, "bad_slowest", "query parameter slowest must be a boolean"))
		return
	}
	s.writeDoc(w, http.StatusOK, TracesResponse{
		Traces:  s.traces.Snapshot(n, slowest),
		Slowest: slowest,
	})
}

// handleMetricsz reports the serving counters.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	s.metrics.countEndpoint("/metricsz")
	entries, evictions := 0, uint64(0)
	if s.cache != nil {
		entries, evictions = s.cache.Len(), s.cache.Evictions()
	}
	snap := s.metrics.snapshot(entries, evictions)
	snap.Stages = s.traces.Stages()
	s.writeDoc(w, http.StatusOK, snap)
}
