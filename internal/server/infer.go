package server

import (
	"context"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/experiments"
	"github.com/snails-bench/snails/internal/llm"
	"github.com/snails-bench/snails/internal/nlq"
	"github.com/snails-bench/snails/internal/schema"
	"github.com/snails-bench/snails/internal/trace"
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

// runInfer evaluates one /v1/infer cell through the server's evaluator, the
// same cell evaluator the sweep uses, and renders the scored cell as the
// response. The evaluator memoizes the question's gold and prompts and each
// distinct predicted query's execution.
func (s *Server) runInfer(b *datasets.Built, v schema.Variant, q nlq.Question, be backend.Backend, tr *trace.Trace) (InferResponse, *apiError) {
	// Not the request's context: a job whose waiter gave up still finishes
	// and warms the memos.
	ctx := trace.NewContext(context.Background(), tr)
	cell, out, err := s.eval.Evaluate(ctx, b, q, be, v)
	if err != nil {
		return InferResponse{}, errorf(http.StatusInternalServerError, "gold_failed",
			"gold query for %s#%d failed: %v", b.Name, q.ID, err)
	}
	if out.InferErr != nil {
		return InferResponse{}, errorf(http.StatusBadGateway, "backend_failed",
			"backend %s could not answer: %v", be.Name(), out.InferErr)
	}

	resp := InferResponse{
		DB:          b.Name,
		Model:       be.Name(),
		Variant:     v.String(),
		QuestionID:  q.ID,
		Question:    q.Text,
		SQL:         out.Prediction.SQL,
		NativeSQL:   out.NativeSQL,
		Valid:       cell.ParseOK,
		Recall:      cell.Link.Recall,
		Precision:   cell.Link.Precision,
		F1:          cell.Link.F1,
		ExecCorrect: cell.ExecCorrect,
	}
	switch {
	case !cell.ParseOK:
		s.verdicts.With("invalid").Inc()
	case cell.ExecCorrect:
		s.verdicts.With("correct").Inc()
	default:
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
