package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/evalx"
	"github.com/snails-bench/snails/internal/experiments"
	"github.com/snails-bench/snails/internal/llm"
	"github.com/snails-bench/snails/internal/memo"
	"github.com/snails-bench/snails/internal/nlq"
	"github.com/snails-bench/snails/internal/schema"
	"github.com/snails-bench/snails/internal/sqldb"
	"github.com/snails-bench/snails/internal/sqlexec"
	"github.com/snails-bench/snails/internal/trace"
	"github.com/snails-bench/snails/internal/workflow"
)

// pool is a bounded worker pool with a fixed-depth queue. Submissions are
// rejected (never blocked) when the queue is full, so an overloaded server
// answers 503 instead of accumulating unbounded goroutines.
type pool struct {
	mu     sync.RWMutex
	jobs   chan func()
	closed bool
	wg     sync.WaitGroup

	workers  int
	busy     atomic.Int64  // workers currently running a job
	rejected atomic.Uint64 // submissions refused (saturated or closed)
}

func newPool(workers, queueDepth int) *pool {
	p := &pool{jobs: make(chan func(), queueDepth), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for f := range p.jobs {
				p.busy.Add(1)
				f()
				p.busy.Add(-1)
			}
		}()
	}
	return p
}

// submit enqueues f, reporting false when the pool is saturated or closed.
func (p *pool) submit(f func()) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		p.rejected.Add(1)
		return false
	}
	select {
	case p.jobs <- f:
		return true
	default:
		p.rejected.Add(1)
		return false
	}
}

// close stops intake and waits for every queued job to run — the serving
// daemon's "finish in-flight work" step.
func (p *pool) close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

type inferOutcome struct {
	resp InferResponse
	err  *apiError
}

// runInfer is the per-request pipeline: prompt → model inference →
// denaturalization → linking scores → relaxed execution match. Prompt
// renders and parses are shared across requests by their own memos; gold
// query results and predicted-query executions are memoized here.
func (s *Server) runInfer(b *datasets.Built, v schema.Variant, q nlq.Question, be backend.Backend, tr *trace.Trace) (InferResponse, *apiError) {
	// Not the request's context: a job whose waiter gave up still finishes
	// and warms the caches.
	ctx := trace.NewContext(context.Background(), tr)
	out := workflow.RunCtx(ctx, workflow.RunInput{B: b, Q: q, Variant: v, Backend: be})
	if out.InferErr != nil {
		return InferResponse{}, errorf(http.StatusBadGateway, "backend_failed",
			"backend %s could not answer: %v", be.Name(), out.InferErr)
	}

	resp := InferResponse{
		DB:         b.Name,
		Model:      be.Name(),
		Variant:    v.String(),
		QuestionID: q.ID,
		Question:   q.Text,
		SQL:        out.Prediction.SQL,
		NativeSQL:  out.NativeSQL,
		Valid:      out.ParseOK,
	}
	if !out.ParseOK {
		s.verdicts.With("invalid").Inc()
		return resp, nil
	}
	link := evalx.QueryLinkingSQL(q.Gold, out.NativeSQL)
	resp.Recall, resp.Precision, resp.F1 = link.Recall, link.Precision, link.F1

	gold, err := s.goldResult(ctx, b, q)
	if err != nil {
		return resp, errorf(500, "gold_failed", "gold query for %s#%d failed: %v", b.Name, q.ID, err)
	}
	if pred := s.predResult(ctx, b, out.NativeSQL); pred != nil {
		t0 := tr.Now()
		resp.ExecCorrect = evalx.CompareResults(gold, pred) == evalx.MatchYes
		tr.Span(trace.StageMatch, t0)
	}
	if resp.ExecCorrect {
		s.verdicts.With("correct").Inc()
	} else {
		s.verdicts.With("incorrect").Inc()
	}
	return resp, nil
}

// backendFor resolves a decode backend by name: configured backends first,
// then the synthetic family lazily by profile name. Synthetic backends
// carry only memoized deterministic state, so sharing across requests is
// race-safe (the parallel sweep engine relies on the same property).
func (s *Server) backendFor(name string) (backend.Backend, *apiError) {
	s.backendsMu.RLock()
	be, ok := s.backends[name]
	s.backendsMu.RUnlock()
	if ok {
		return be, nil
	}
	s.backendsMu.Lock()
	defer s.backendsMu.Unlock()
	if be, ok := s.backends[name]; ok {
		return be, nil
	}
	p, ok := llm.ProfileByName(name)
	if !ok {
		return nil, errorf(http.StatusNotFound, "unknown_model", "unknown model %q (have %s)",
			name, strings.Join(s.backendNamesLocked(), ", "))
	}
	be = backend.WrapModel(llm.New(p))
	s.backends[name] = be
	return be, nil
}

// backendNamesLocked lists the reachable backend names (configured plus
// synthetic profiles), sorted, for error messages. Callers hold backendsMu.
func (s *Server) backendNamesLocked() []string {
	seen := map[string]bool{}
	var out []string
	for name := range s.backends {
		seen[name] = true
		out = append(out, name)
	}
	for _, name := range experiments.ModelNames() {
		if !seen[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// goldResult executes (and memoizes) a question's gold query. The execution
// is traced on first compute only; cache hits do no SQL work and record no
// span.
func (s *Server) goldResult(ctx context.Context, b *datasets.Built, q nlq.Question) (*sqldb.Result, error) {
	key := fmt.Sprintf("%s#%d", b.Name, q.ID)
	if v, ok := s.goldCache.Get(key); ok {
		return v, nil
	}
	res, err := sqlexec.ExecuteSQLCtx(ctx, b.Instance, q.Gold)
	if err != nil {
		return nil, err
	}
	s.goldCache.Put(key, res)
	return res, nil
}

// goldSQLResult executes an arbitrary caller-supplied gold query (the
// /v1/link path, where gold is not a benchmark question). Errors are
// reported to the caller, so results are not memoized through predCache's
// nil-on-error convention.
func (s *Server) goldSQLResult(ctx context.Context, b *datasets.Built, sql string) (*sqldb.Result, error) {
	key := b.Name + "\x00gold\x00" + sql
	if v, ok := s.goldCache.Get(key); ok {
		return v, nil
	}
	res, err := sqlexec.ExecuteSQLCtx(ctx, b.Instance, sql)
	if err != nil {
		return nil, err
	}
	s.goldCache.Put(key, res)
	return res, nil
}

// predResult executes (and memoizes) a predicted query; nil means the
// prediction does not execute, which scores as an execution miss.
func (s *Server) predResult(ctx context.Context, b *datasets.Built, sql string) *sqldb.Result {
	key := b.Name + "\x00" + sql
	return s.predCache.GetOrCompute(key, func() *sqldb.Result {
		res, err := sqlexec.ExecuteSQLCtx(ctx, b.Instance, sql)
		if err != nil {
			return nil
		}
		return res
	})
}

// newExecCaches builds the server's execution memos. Both are bounded:
// /v1/link accepts arbitrary caller SQL, so even the gold side has an
// unbounded key space in a long-running daemon.
func newExecCaches() (gold *memo.Cache[*sqldb.Result], pred *memo.Cache[*sqldb.Result]) {
	return memo.NewBounded[*sqldb.Result](1 << 13), memo.NewBounded[*sqldb.Result](1 << 14)
}
