package experiments

import (
	"context"
	"strconv"
	"sync/atomic"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/evalx"
	"github.com/snails-bench/snails/internal/llm"
	"github.com/snails-bench/snails/internal/memo"
	"github.com/snails-bench/snails/internal/nlq"
	"github.com/snails-bench/snails/internal/schema"
	"github.com/snails-bench/snails/internal/sqldb"
	"github.com/snails-bench/snails/internal/sqlexec"
	"github.com/snails-bench/snails/internal/sqlparse"
	"github.com/snails-bench/snails/internal/trace"
	"github.com/snails-bench/snails/internal/workflow"
)

// Evaluator runs and scores grid cells: execution match plus linking recall,
// precision and F1, the paper's verdict for one (database, question, model,
// variant). It is the only cell evaluator in the repository. RunSweep uses a
// process-wide one whose memos are shared across sweeps; the serving daemon
// gives each server its own bounded one and answers /v1/infer through it.
//
// Two memos back it, both safe for concurrent use:
//   - question inputs, keyed by (database, question id): the gold
//     identifier set, the gold result, and per schema variant the rendered
//     prompt, its tables and its parsed *llm.PromptSchema, each resolved on
//     first use;
//   - predicted-query executions, keyed by (database, SQL): parse, analyze
//     and execute once per distinct query. Different models and variants
//     often emit the same SQL for a question, so most cells hit.
type Evaluator struct {
	inputs *memo.Cache[*questionInputs]
	preds  *memo.Cache[*predExec]
}

// NewEvaluator returns an evaluator whose question-input memo holds about
// maxQuestions entries and whose execution memo holds about maxPreds
// (clock-hand evicted; <= 0 means unbounded). Correctness never depends on a
// hit.
func NewEvaluator(maxQuestions, maxPreds int) *Evaluator {
	return &Evaluator{
		inputs: memo.NewBounded[*questionInputs](maxQuestions),
		preds:  memo.NewBounded[*predExec](maxPreds),
	}
}

// MemoStats is the read-only view of one evaluator memo that metrics scrape.
type MemoStats interface {
	Hits() uint64
	Misses() uint64
	Evictions() uint64
	Len() int
}

// GoldMemo reports the question-input memo: one lookup per evaluated cell.
func (ev *Evaluator) GoldMemo() MemoStats { return ev.inputs }

// PredMemo reports the execution memo: one lookup per parsed prediction and
// per Execute call.
func (ev *Evaluator) PredMemo() MemoStats { return ev.preds }

// questionInputs is what every cell of one (database, question) shares.
// Values are shared read-only across cells and goroutines.
type questionInputs struct {
	goldIDs sqlparse.IdentifierSet
	gold    *sqldb.Result
	// err is set when the gold query does not parse or execute; the other
	// fields are then empty.
	err error
	// prompts holds one rendered prompt per schema variant, indexed by
	// schema.Variant and filled on first use.
	prompts []atomic.Pointer[cellPrompt]
}

// cellPrompt is one rendered prompt with the native tables it covers and
// its parsed schema handle, so decodes skip the prompt-text hash.
type cellPrompt struct {
	text   string
	tables []string
	ps     *llm.PromptSchema
}

// question returns the inputs of (b, q), parsing and executing the gold on
// first use. The execution is traced through ctx only when computed; hits do
// no SQL work and record no span. A failing gold is memoized with its
// error: execution is deterministic, so a retry would fail the same way.
func (ev *Evaluator) question(ctx context.Context, b *datasets.Built, q nlq.Question) *questionInputs {
	return ev.inputs.GetOrCompute(b.Name+"#"+strconv.Itoa(q.ID), func() *questionInputs {
		in := &questionInputs{prompts: make([]atomic.Pointer[cellPrompt], len(schema.Variants))}
		sel, err := sqlparse.Parse(q.Gold)
		if err != nil {
			in.err = err
			return in
		}
		gold, err := sqlexec.ExecuteCtx(ctx, b.Instance, sel)
		if err != nil {
			in.err = err
			return in
		}
		in.goldIDs, in.gold = sqlparse.Analyze(sel).All(), gold
		return in
	})
}

// prompt returns the cell prompt at variant v, rendering and parsing it on
// first use. The prompt_render span covers the lookup, hit or miss, so every
// traced cell carries one. Racing first uses compute identical prompts, so
// either store may win.
func (in *questionInputs) prompt(ctx context.Context, b *datasets.Built, q nlq.Question, v schema.Variant) *cellPrompt {
	tr := trace.FromContext(ctx)
	t0 := tr.Now()
	slot := &in.prompts[v]
	p := slot.Load()
	if p == nil {
		text, tables := workflow.PromptFor(b, q, v)
		p = &cellPrompt{text: text, tables: tables, ps: llm.PromptSchemaOf(text)}
		slot.Store(p)
	}
	tr.Span(trace.StagePrompt, t0)
	return p
}

// Evaluate runs and scores one cell. It returns the cell with the pipeline
// output it was scored from (the server reports its SQL and backend error).
// The error is the gold query's: a gold that does not parse or execute
// leaves nothing to score against. Naturalness features are left zero; they
// are the sweep's per-question aggregates.
func (ev *Evaluator) Evaluate(ctx context.Context, b *datasets.Built, q nlq.Question, be backend.Backend, v schema.Variant) (Cell, workflow.RunOutput, error) {
	in := ev.question(ctx, b, q)
	if in.err != nil {
		return Cell{}, workflow.RunOutput{}, in.err
	}
	cell, out := ev.runCell(ctx, b, q, in, be, v, in.prompt(ctx, b, q, v))
	return cell, out, nil
}

// Execute runs a caller-supplied query against b through the execution memo
// and returns its result or its parse or execution error.
func (ev *Evaluator) Execute(ctx context.Context, b *datasets.Built, sql string) (*sqldb.Result, error) {
	pe := ev.execution(ctx, b, sql)
	return pe.res, pe.err
}

// predExec is the memoized outcome of handling one SQL string against one
// database. Fields mirror the stage gates of runCell: parse, identifier
// analysis, then execution.
type predExec struct {
	parseOK bool
	ids     sqlparse.IdentifierSet
	res     *sqldb.Result
	err     error // the parse or execution error; nil when res is set
}

// execution parses, analyzes, and executes a query, memoized. The execution
// span is recorded only on first compute; cache hits do no SQL work and
// leave no trace.
func (ev *Evaluator) execution(ctx context.Context, b *datasets.Built, sql string) *predExec {
	return ev.preds.GetOrCompute(b.Name+"\x00"+sql, func() *predExec {
		pe := &predExec{}
		sel, err := sqlparse.Parse(sql)
		if err != nil {
			pe.err = err
			return pe
		}
		pe.parseOK = true
		pe.ids = sqlparse.Analyze(sel).All()
		pe.res, pe.err = sqlexec.ExecuteCtx(ctx, b.Instance, sel)
		return pe
	})
}

// runCell decodes one cell against its resolved prompt and scores the
// prediction against the question's gold.
func (ev *Evaluator) runCell(ctx context.Context, b *datasets.Built, q nlq.Question, in *questionInputs,
	be backend.Backend, v schema.Variant, p *cellPrompt) (Cell, workflow.RunOutput) {

	out := workflow.RunWithSchemaCtx(ctx, workflow.RunInput{B: b, Q: q, Variant: v, Backend: be}, p.text, p.tables, p.ps)
	cell := Cell{
		Model:      be.Name(),
		Backend:    be.Name(),
		DB:         b.Name,
		Variant:    v,
		QuestionID: q.ID,
		GoldIDs:    in.goldIDs,
		ParseOK:    out.ParseOK,
	}

	if out.ParseOK {
		pe := ev.execution(ctx, b, out.NativeSQL)
		if pe.parseOK {
			cell.PredIDs = pe.ids
			cell.Link = evalx.QueryLinking(in.goldIDs, cell.PredIDs)
			if pe.err == nil {
				tr := trace.FromContext(ctx)
				t0 := tr.Now()
				outcome := evalx.CompareResults(in.gold, pe.res)
				if outcome == evalx.MatchYes && q.Ordered {
					outcome = evalx.OrderedCompare(in.gold, pe.res)
				}
				tr.Span(trace.StageMatch, t0)
				cell.ExecCorrect = outcome == evalx.MatchYes
			}
		}
	}

	if out.FilteredNative != nil {
		goldTables := sqlparse.IdentifierSet{}
		for _, t := range q.Tables {
			goldTables.Add(t)
		}
		selected := sqlparse.IdentifierSet{}
		for _, t := range out.FilteredNative {
			selected.Add(t)
		}
		ss := evalx.SchemaSubsetting(goldTables, selected)
		cell.Subset = &ss
	}
	return cell, out
}
