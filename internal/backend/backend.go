// Package backend abstracts the model behind the SNAILS pipeline: a Backend
// turns a rendered schema-knowledge prompt plus a question into a SQL string.
// The synthetic family (internal/llm) is the reference implementation; the
// HTTP backend speaks an OpenAI-style /v1/chat/completions endpoint so the
// same harness can evaluate real models. Capability hints tell the callers
// which guarantees hold per backend: the sweep only asserts bit-identical
// determinism for deterministic backends.
package backend

import (
	"context"

	"github.com/snails-bench/snails/internal/llm"
	"github.com/snails-bench/snails/internal/nlq"
)

// Request is one NL-to-SQL inference request as the pipeline hands it to a
// backend: the prompt is already rendered at the cell's schema variant.
type Request struct {
	// SchemaKnowledge is the rendered schema prompt block
	// (#Table(Col Type, ...) lines).
	SchemaKnowledge string
	// Question is the natural-language question text.
	Question string
	// Intent carries the template-level meaning of the question. Only the
	// synthetic family consumes it; wire backends see just the text.
	Intent nlq.Intent
	// Seed individualizes deterministic noise. Meaningful only to
	// deterministic backends; wire backends ignore it.
	Seed uint64
	// PromptSchema is an optional pre-interned handle for SchemaKnowledge
	// (llm.PromptSchemaOf). The cell evaluator resolves it once per (db, question,
	// variant) job; backends that don't need it ignore it.
	PromptSchema *llm.PromptSchema
}

// Result is a backend's answer for one request.
type Result struct {
	// SQL is the generated query, identifiers at the prompt's variant.
	SQL string
	// FilteredTables records the schema-subsetting selection for backends
	// with a linking stage (DIN-SQL, CodeS); nil otherwise.
	FilteredTables []string
	// Invalid marks generations the backend itself knows are not SQL.
	Invalid bool
}

// Capabilities are per-backend hints the harness layers key behavior off.
type Capabilities struct {
	// Deterministic backends produce bit-identical results for identical
	// (request, seed) pairs; the sweep's determinism guarantees (parallel
	// output == serial output) are scoped to these.
	Deterministic bool
	// SchemaLinking backends emit FilteredTables (a schema-subsetting
	// stage precedes generation).
	SchemaLinking bool
}

// Backend is a model implementation the pipeline can decode through.
// Implementations must be safe for concurrent use.
type Backend interface {
	// Name identifies the backend in cells, responses, and reports.
	Name() string
	// Capabilities reports the hints above; they are static per backend.
	Capabilities() Capabilities
	// Infer produces SQL for the request. An error means the backend could
	// not answer (wire failure, exhausted retries); the pipeline records
	// the cell as failed rather than aborting the sweep.
	Infer(ctx context.Context, req Request) (Result, error)
}
