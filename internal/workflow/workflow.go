// Package workflow wires the SNAILS pipeline end to end (Figure 6): prompt
// generation with schema-identifier modification, synthetic-LLM inference,
// generated-query denaturalization, and execution against the native
// database. It also provides the section-6 practical applications: the
// prompt/query middleware and the natural-view workflow.
package workflow

import (
	"context"
	"log/slog"
	"sort"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/llm"
	"github.com/snails-bench/snails/internal/nlq"
	"github.com/snails-bench/snails/internal/schema"
	"github.com/snails-bench/snails/internal/sqlparse"
	"github.com/snails-bench/snails/internal/trace"
)

// RunInput is one (database, question, schema variant, model) cell of the
// benchmark grid. Exactly one of Backend and Model drives the decode:
// Backend when set, else Model through the synthetic fast path (the two are
// bit-identical for synthetic backends — the adapter calls the same
// InferOn).
type RunInput struct {
	B       *datasets.Built
	Q       nlq.Question
	Variant schema.Variant
	Backend backend.Backend
	Model   *llm.Model
}

// ModelName returns the decode identity used for seeding and logs.
func (in *RunInput) ModelName() string {
	if in.Backend != nil {
		return in.Backend.Name()
	}
	return in.Model.Profile.Name
}

// RunOutput is the pipeline's result for one cell.
type RunOutput struct {
	// Prompt is the schema-knowledge block shown to the model.
	Prompt string
	// PromptTables lists the native tables included in the prompt.
	PromptTables []string
	// Prediction is the raw model output (identifiers at the prompt's
	// naturalness variant).
	Prediction llm.Prediction
	// NativeSQL is the denaturalized prediction, executable on the native
	// schema; empty when the prediction does not parse.
	NativeSQL string
	// ParseOK reports whether the prediction parsed (unparseable
	// predictions are excluded from linking analysis, per the paper).
	ParseOK bool
	// FilteredNative is the schema-filtering selection mapped back to
	// native table names.
	FilteredNative []string
	// InferErr is set when a backend could not answer (wire failure,
	// exhausted retries). The cell counts as failed; the sweep goes on.
	InferErr error
}

// promptTables picks the schema subset shown in the prompt. Single-module
// databases show everything; SBOD prompts the union of the modules its gold
// tables belong to, mirroring the paper's module segmentation (performed by
// the authors when constructing prompts, not by the model).
func promptTables(b *datasets.Built, q nlq.Question) []string {
	if len(b.Modules) <= 1 {
		return nil // all tables
	}
	mods := map[string]struct{}{}
	for _, t := range q.Tables {
		mods[b.ModuleOf(t)] = struct{}{}
	}
	var out []string
	for m := range mods {
		out = append(out, b.Modules[m]...)
	}
	sort.Strings(out)
	return out
}

// Seed derives the deterministic noise seed for a cell.
func Seed(model, db string, questionID int, v schema.Variant) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for _, s := range []string{model, db, v.String()} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 0x100000001b3
		}
	}
	h ^= uint64(questionID)
	h *= 0x100000001b3
	return h
}

// PromptFor renders the schema-knowledge prompt for one cell and returns it
// with the native tables it covers. Cells of a single-module database share
// one prompt per variant (tables == nil); built databases memoize the render
// per option set, so repeated calls for the same prompt are cheap.
func PromptFor(b *datasets.Built, q nlq.Question, v schema.Variant) (prompt string, tables []string) {
	tables = promptTables(b, q)
	opts := schema.PromptOptions{Variant: v, Tables: tables, IncludeTypes: true}
	return b.Schema.SchemaKnowledge(opts), tables
}

// Run executes the full pipeline for one cell.
func Run(in RunInput) RunOutput {
	return RunCtx(context.Background(), in)
}

// RunCtx is Run with trace propagation: when the context carries a
// trace.Trace, the prompt render, model decode, and parse/denaturalize
// stages are recorded as spans. Untraced contexts pay one nil check per
// stage. It renders the prompt and hashes its text on every call, so it
// suits one-off cells (the facade's Ask, the ablations); the sweep and the
// serving daemon evaluate through experiments.Evaluator, which resolves
// each prompt once and calls RunWithSchemaCtx.
func RunCtx(ctx context.Context, in RunInput) RunOutput {
	tr := trace.FromContext(ctx)
	t0 := tr.Now()
	prompt, tables := PromptFor(in.B, in.Q, in.Variant)
	tr.Span(trace.StagePrompt, t0)
	return runWithSchema(ctx, in, prompt, tables, nil)
}

// RunWithSchemaCtx executes the pipeline for one cell against a pre-rendered
// prompt (PromptFor's output for the cell) and its pre-parsed prompt-schema
// handle (llm.PromptSchemaOf(prompt)). The cell evaluator resolves both once
// per (db, question, variant), so every model's cell skips the prompt-text
// hash. The prompt span is the caller's; decode and parse are recorded here.
func RunWithSchemaCtx(ctx context.Context, in RunInput, prompt string, tables []string, ps *llm.PromptSchema) RunOutput {
	return runWithSchema(ctx, in, prompt, tables, ps)
}

func runWithSchema(ctx context.Context, in RunInput, prompt string, tables []string, ps *llm.PromptSchema) RunOutput {
	tr := trace.FromContext(ctx)
	t0 := tr.Now()
	if ps == nil {
		ps = llm.PromptSchemaOf(prompt)
	}
	seed := Seed(in.ModelName(), in.B.Name, in.Q.ID, in.Variant)
	var pred llm.Prediction
	var inferErr error
	if in.Backend != nil {
		res, err := in.Backend.Infer(ctx, backend.Request{
			SchemaKnowledge: prompt,
			Question:        in.Q.Text,
			Intent:          in.Q.Intent,
			Seed:            seed,
			PromptSchema:    ps,
		})
		if err != nil {
			inferErr = err
			pred = llm.Prediction{Invalid: true}
		} else {
			pred = llm.Prediction{SQL: res.SQL, FilteredTables: res.FilteredTables, Invalid: res.Invalid}
		}
	} else {
		pred = in.Model.InferOn(ps, llm.Task{
			SchemaKnowledge: prompt,
			Question:        in.Q.Text,
			Intent:          in.Q.Intent,
			Seed:            seed,
		})
	}
	tr.Span(trace.StageDecode, t0)

	out := RunOutput{
		Prompt:       prompt,
		PromptTables: tables,
		Prediction:   pred,
		InferErr:     inferErr,
	}
	if inferErr != nil {
		slog.DebugContext(ctx, "backend inference failed",
			slog.String("backend", in.ModelName()),
			slog.String("db", in.B.Name),
			slog.String("variant", in.Variant.String()),
			slog.Int("question_id", in.Q.ID),
			slog.String("err", inferErr.Error()))
		return out
	}
	for _, ft := range pred.FilteredTables {
		out.FilteredNative = append(out.FilteredNative, in.B.Schema.ToNativeVariant(ft, in.Variant))
	}
	if pred.Invalid {
		return out
	}
	t1 := tr.Now()
	sel, err := sqlparse.Parse(pred.SQL)
	if err != nil {
		tr.Span(trace.StageParse, t1)
		slog.DebugContext(ctx, "prediction did not parse",
			slog.String("model", in.ModelName()),
			slog.String("db", in.B.Name),
			slog.String("variant", in.Variant.String()),
			slog.Int("question_id", in.Q.ID),
			slog.String("err", err.Error()))
		return out
	}
	out.ParseOK = true
	out.NativeSQL = Denaturalize(in.B.Schema, sel, in.Variant)
	tr.Span(trace.StageParse, t1)
	return out
}

// Denaturalize maps a parsed query's identifiers from a schema variant back
// to native names (appendix D.4); aliases and literals are untouched because
// replacement happens on the AST, not by string substitution.
func Denaturalize(db *schema.Database, sel *sqlparse.Select, v schema.Variant) string {
	return sqlparse.RenameIdentifiers(sel, func(kind, name string) string {
		return db.ToNativeVariant(name, v)
	})
}

// Naturalize maps a parsed query's identifiers from native names to a
// variant — the reverse direction, used by tests and tooling.
func Naturalize(db *schema.Database, sel *sqlparse.Select, v schema.Variant) string {
	return sqlparse.RenameIdentifiers(sel, func(kind, name string) string {
		return db.RenameVariant(name, v)
	})
}

// Middleware is the section-H.2 schema-modification middleware: it rewrites
// prompt schema knowledge so the LLM sees a Regular-naturalness view and
// rewrites generated queries back to the native schema before execution,
// leaving the database untouched.
type Middleware struct {
	DB *schema.Database
}

// NaturalizePrompt renders Regular-naturalness schema knowledge for the
// given native tables (nil = all).
func (mw *Middleware) NaturalizePrompt(tables []string) string {
	return mw.DB.SchemaKnowledge(schema.PromptOptions{
		Variant: schema.VariantRegular, Tables: tables, IncludeTypes: true,
	})
}

// DenaturalizeQuery rewrites a generated query's Regular-naturalness
// identifiers to native ones. It returns an error when the query does not
// parse.
func (mw *Middleware) DenaturalizeQuery(sql string) (string, error) {
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	return Denaturalize(mw.DB, sel, schema.VariantRegular), nil
}

// NaturalViews generates the CREATE VIEW DDL of the section-6 natural-view
// proof of concept for every table of the database.
func NaturalViews(db *schema.Database) []string { return db.NaturalViewDDL() }

// ViewNameFor returns the db_nl view name that exposes a native table at
// Regular naturalness.
func ViewNameFor(db *schema.Database, nativeTable string) string {
	return "db_nl." + db.Rename(nativeTable, 0)
}

// DescribeWorkflow names the method family for reporting (the paper's ZS /
// DIN SQL / CodeS labels).
func DescribeWorkflow(m *llm.Model) string {
	switch m.Profile.Workflow {
	case llm.WorkflowDIN:
		return "DIN SQL prompt chaining"
	case llm.WorkflowCodeS:
		return "CodeS schema filtering + finetuned inference"
	default:
		return "zero-shot prompting with schema knowledge (ZS)"
	}
}

// VariantLabel renders the schema variant exactly as the paper's figures do.
func VariantLabel(v schema.Variant) string { return v.String() }
