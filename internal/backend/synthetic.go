package backend

import (
	"context"

	"github.com/snails-bench/snails/internal/llm"
	"github.com/snails-bench/snails/internal/trace"
)

// Synthetic adapts a synthetic model (internal/llm) to the Backend
// interface. It is the reference implementation: deterministic and — for
// profiles with a filtering stage — schema-linking. The adapter preserves
// the exact InferOn call path, so a synthetic-backend sweep is bit-identical
// to the pre-interface pipeline.
type Synthetic struct {
	m *llm.Model
}

// NewSynthetic returns a backend over a fresh model for the profile.
func NewSynthetic(p *llm.Profile) *Synthetic { return &Synthetic{m: llm.New(p)} }

// WrapModel adapts an existing model (sharing its linking memo).
func WrapModel(m *llm.Model) *Synthetic { return &Synthetic{m: m} }

// Model exposes the underlying synthetic model for callers that need
// profile details (reporting labels, tokenizer family).
func (s *Synthetic) Model() *llm.Model { return s.m }

// Name is the synthetic profile's name (e.g. "gpt-4o").
func (s *Synthetic) Name() string { return s.m.Profile.Name }

// Capabilities: synthetic models are deterministic; filter workflows
// additionally link.
func (s *Synthetic) Capabilities() Capabilities {
	return Capabilities{
		Deterministic: true,
		SchemaLinking: s.m.Profile.FilterKeep > 0,
	}
}

// Infer decodes through the synthetic model. It never returns an error, and
// the context is consulted only for the request trace (synthetic decode is
// pure compute, so there is exactly one attempt): a traced request gets a
// backend_attempt span, and the call feeds the shared outcome tallies so
// synthetic and wire backends surface in the same snails_backend_* families.
func (s *Synthetic) Infer(ctx context.Context, req Request) (Result, error) {
	ps := req.PromptSchema
	if ps == nil {
		ps = llm.PromptSchemaOf(req.SchemaKnowledge)
	}
	tr := trace.FromContext(ctx)
	start := tr.Now()
	pred := s.m.InferOn(ps, llm.Task{
		SchemaKnowledge: req.SchemaKnowledge,
		Question:        req.Question,
		Intent:          req.Intent,
		Seed:            req.Seed,
	})
	tr.SpanTag(trace.StageBackendAttempt, start, s.Name()+"#0")
	countOutcome(nil)
	return Result{SQL: pred.SQL, FilteredTables: pred.FilteredTables, Invalid: pred.Invalid}, nil
}
