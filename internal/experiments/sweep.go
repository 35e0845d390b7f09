// Package experiments runs the SNAILS evaluation grid — 6 models x 4 schema
// variants x 503 questions — and aggregates every table and figure of the
// paper's evaluation section. The full sweep is deterministic and cached per
// process; grid cells fan out across a bounded worker pool with output
// ordering identical to the serial evaluation.
package experiments

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/evalx"
	"github.com/snails-bench/snails/internal/llm"
	"github.com/snails-bench/snails/internal/memo"
	"github.com/snails-bench/snails/internal/naturalness"
	"github.com/snails-bench/snails/internal/nlq"
	"github.com/snails-bench/snails/internal/schema"
	"github.com/snails-bench/snails/internal/sqldb"
	"github.com/snails-bench/snails/internal/sqlexec"
	"github.com/snails-bench/snails/internal/sqlparse"
	"github.com/snails-bench/snails/internal/token"
	"github.com/snails-bench/snails/internal/trace"
	"github.com/snails-bench/snails/internal/workflow"
)

// Cell is one observation of the benchmark grid.
type Cell struct {
	// Model and Backend both carry the decode identity. They are equal —
	// Backend is the interface-era name; Model remains because every
	// report aggregation keys off it.
	Model      string
	Backend    string
	DB         string
	Variant    schema.Variant
	QuestionID int

	// Execution accuracy.
	ExecCorrect bool
	// Linking (valid only when ParseOK).
	ParseOK bool
	Link    evalx.LinkScores
	// GoldIDs / PredIDs are native identifier sets.
	GoldIDs, PredIDs sqlparse.IdentifierSet
	// Subset holds schema-subsetting scores for filter workflows.
	Subset *evalx.SubsetScores

	// Query naturalness features (of the gold identifiers as rendered in
	// the prompt variant).
	Combined  float64
	RegFrac   float64
	LowFrac   float64
	LeastFrac float64
	// TCR is the mean token-to-character ratio of those identifiers under
	// the model's tokenizer.
	TCR float64
}

// Stats records how a sweep executed. It describes the run, not the results:
// two sweeps with different Stats but equal Cells are the same experiment.
type Stats struct {
	Cells       int
	Workers     int
	WallClock   time.Duration
	CellsPerSec float64

	// Stages is the per-stage latency breakdown over every cell, recorded
	// through the same trace spans the serving daemon uses. Cache hits in the
	// gold/pred memos do no work and record no span, so the histograms
	// describe compute actually performed, not logical stage counts.
	Stages []trace.StageSnapshot
}

// Sweep is the full grid plus lookup indexes.
type Sweep struct {
	Cells []Cell
	// Tally maps (model) -> identifier-level recall accumulator over the
	// Native-variant runs (Figure 9).
	Tally map[string]*evalx.IdentifierTally
	// Stats describes the execution (worker count, wall clock).
	Stats Stats
}

// Options configures sweep execution. The zero value runs the full
// synthetic family over every variant with the process-default worker
// count.
type Options struct {
	// Workers is the number of concurrent grid workers. 0 means the
	// process default (SetDefaultWorkers, else GOMAXPROCS); 1 runs the
	// classic serial loop. Results are identical at every setting for
	// deterministic backends.
	Workers int

	// Backends is the decode axis. Empty means one synthetic backend per
	// llm profile — the classic grid. Determinism guarantees (parallel
	// output bit-identical to serial) hold per backend only when its
	// capabilities claim it.
	Backends []backend.Backend

	// Variants is the schema-naturalness axis. Empty means all four.
	Variants []schema.Variant

	// MaxQuestionsPerDB keeps only the first N questions per database
	// (0 = all). The grid enumeration is deterministic, so this is a
	// stable prefix.
	MaxQuestionsPerDB int

	// MaxCells caps the total grid size (0 = unbounded); enumeration
	// stops before the job that would exceed it.
	MaxCells int
}

// defaultWorkers holds the process-wide worker override; 0 defers to
// GOMAXPROCS. Set from the -parallel CLI flags.
var defaultWorkers atomic.Int64

// SetDefaultWorkers overrides the worker count used by sweeps that do not
// specify one. n <= 0 restores the GOMAXPROCS default.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the worker count a zero-Options sweep will use.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

var (
	sweepOnce sync.Once
	sweepVal  *Sweep

	questionsOnce sync.Once
	questionsByDB map[string][]nlq.Question

	// goldCache memoizes gold query results across the whole process: the
	// same gold runs for every (model, variant) pair and for overlapping
	// experiment sweeps.
	goldCache = memo.New[*sqldb.Result]()

	// predCache memoizes predicted-query parse/analyze/execute outcomes per
	// (database, native SQL). Different models and variants frequently emit
	// the same SQL for a question — most cells on natural schemas produce
	// the correct query verbatim — so the grid re-executes each distinct
	// query once instead of once per cell. Cached results and identifier
	// sets are shared read-only across cells.
	predCache = memo.NewBounded[*predExec](1 << 16)
)

// predExec is the memoized outcome of handling one predicted SQL string
// against one database. Fields mirror the stage gates of runCell: parse,
// identifier analysis, then execution.
type predExec struct {
	parseOK bool
	ids     sqlparse.IdentifierSet
	execOK  bool
	res     *sqldb.Result
}

// predExecution parses, analyzes, and executes a predicted query, memoized.
// The execution span is recorded only on first compute; cache hits do no SQL
// work and leave no trace (matching the serving daemon's convention).
func predExecution(ctx context.Context, b *datasets.Built, sql string) *predExec {
	return predCache.GetOrCompute(b.Name+"\x00"+sql, func() *predExec {
		pe := &predExec{}
		sel, err := sqlparse.Parse(sql)
		if err != nil {
			return pe
		}
		pe.parseOK = true
		pe.ids = sqlparse.Analyze(sel).All()
		if res, execErr := sqlexec.ExecuteCtx(ctx, b.Instance, sel); execErr == nil {
			pe.execOK = true
			pe.res = res
		}
		return pe
	})
}

// Questions returns the cached Artifact 6 question set for a database.
func Questions(db string) []nlq.Question {
	questionsOnce.Do(func() {
		questionsByDB = map[string][]nlq.Question{}
		for _, b := range datasets.All() {
			questionsByDB[b.Name] = nlq.Generate(b)
		}
	})
	return questionsByDB[db]
}

func goldKey(db string, qid int) string { return fmt.Sprintf("%s#%d", db, qid) }

// goldResult executes (once) and caches a gold query's result. Concurrent
// callers may race to execute the same gold; both executions produce the
// identical deterministic result, so either may be cached.
func goldResult(b *datasets.Built, q nlq.Question) *sqldb.Result {
	return goldCache.GetOrCompute(goldKey(b.Name, q.ID), func() *sqldb.Result {
		res, err := sqlexec.ExecuteSQL(b.Instance, q.Gold)
		if err != nil {
			panic(fmt.Sprintf("experiments: gold query failed (%s q%d): %v", b.Name, q.ID, err))
		}
		return res
	})
}

// Run returns the full cached sweep over the SNAILS collection.
func Run() *Sweep {
	sweepOnce.Do(func() { sweepVal = RunSweep(datasets.All(), Options{}) })
	return sweepVal
}

// job is one unit of parallel work: a (database, question) pair owning a
// contiguous stride of len(models)*len(variants) cells starting at base.
type job struct {
	b    *datasets.Built
	q    nlq.Question
	base int
}

// RunSweep executes the grid over the given databases. Cells are laid out in
// the fixed grid order (database, question, model, variant) regardless of the
// worker count: each (db, question) job writes its stride of the preallocated
// cell slice by index, and the identifier tally is accumulated in a serial
// pass afterwards, so parallel output is bit-identical to serial.
func RunSweep(dbs []*datasets.Built, opts Options) *Sweep {
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	start := time.Now()

	backends := opts.Backends
	if len(backends) == 0 {
		backends = make([]backend.Backend, 0, 6)
		for _, p := range llm.Profiles() {
			backends = append(backends, backend.NewSynthetic(p))
		}
	}
	variants := opts.Variants
	if len(variants) == 0 {
		variants = schema.Variants
	}

	s := &Sweep{Tally: map[string]*evalx.IdentifierTally{}}
	for _, be := range backends {
		s.Tally[be.Name()] = evalx.NewIdentifierTally()
	}
	stride := len(backends) * len(variants)

	// Enumerate jobs serially: question generation touches package-level
	// caches and fixes the grid layout.
	var jobs []job
	total := 0
	for _, b := range dbs {
		qs := questionsOf(b)
		if opts.MaxQuestionsPerDB > 0 && len(qs) > opts.MaxQuestionsPerDB {
			qs = qs[:opts.MaxQuestionsPerDB]
		}
		for _, q := range qs {
			if opts.MaxCells > 0 && total+stride > opts.MaxCells {
				break
			}
			jobs = append(jobs, job{b: b, q: q, base: total})
			total += stride
		}
	}
	s.Cells = make([]Cell, total)

	// Histogram-only collector (no ring): the sweep records the same stage
	// spans as the serving path, aggregated into the Stats breakdown.
	coll := trace.NewCollector(0)

	if workers == 1 {
		for _, j := range jobs {
			runJob(s.Cells, j, backends, variants, coll)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					runJob(s.Cells, jobs[i], backends, variants, coll)
				}
			}()
		}
		wg.Wait()
	}

	// Identifier tallies mutate shared maps; accumulate serially in grid
	// order after the fan-out.
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Variant == schema.VariantNative && c.ParseOK {
			s.Tally[c.Backend].Observe(c.GoldIDs, c.PredIDs)
		}
	}

	wall := time.Since(start)
	s.Stats = Stats{Cells: total, Workers: workers, WallClock: wall, Stages: coll.Stages()}
	if secs := wall.Seconds(); secs > 0 {
		s.Stats.CellsPerSec = float64(total) / secs
	}
	return s
}

// runJob evaluates one (database, question) across every backend and
// variant, writing cells into the shared slice at the job's reserved
// stride. Cells in distinct jobs never alias, so no locking is needed.
func runJob(cells []Cell, j job, backends []backend.Backend, variants []schema.Variant, coll *trace.Collector) {
	b, q := j.b, j.q
	goldSel, err := sqlparse.Parse(q.Gold)
	if err != nil {
		panic(fmt.Sprintf("experiments: unparseable gold (%s q%d): %v", b.Name, q.ID, err))
	}
	goldIDs := sqlparse.Analyze(goldSel).All()
	gold := goldResult(b, q)

	// Naturalness features depend only on (variant, tokenizer family), not
	// the model itself: compute each combination once per question instead
	// of once per cell.
	type featKey struct {
		v      schema.Variant
		family string
	}
	feats := make(map[featKey]natFeatures, 8)
	featsOf := func(v schema.Variant, family string) natFeatures {
		k := featKey{v, family}
		if f, ok := feats[k]; ok {
			return f
		}
		f := naturalnessFeatures(b, goldIDs, family, v)
		feats[k] = f
		return f
	}

	// Job-level prompt sharing: the prompt (and its interned schema handle)
	// depends only on the variant within a job, so render and parse once and
	// let all six models decode against the same handle.
	type sharedPrompt struct {
		prompt string
		tables []string
		ps     *llm.PromptSchema
	}
	prompts := make([]sharedPrompt, len(variants))
	for vi, v := range variants {
		tr := coll.Start("sweep")
		tr.SetRequest(b.Name, v.String(), q.ID)
		t0 := tr.Now()
		prompt, tables := workflow.PromptFor(b, q, v)
		ps := llm.PromptSchemaOf(prompt)
		tr.Span(trace.StagePrompt, t0)
		coll.Finish(tr)
		prompts[vi] = sharedPrompt{prompt: prompt, tables: tables, ps: ps}
	}

	idx := j.base
	for _, be := range backends {
		family := tokenizerFor(be.Name())
		for vi, v := range variants {
			tr := coll.Start("sweep")
			tr.SetRequest(b.Name, v.String(), q.ID)
			sp := &prompts[vi]
			cell := runCell(trace.NewContext(context.Background(), tr), b, q, goldIDs, gold, be, v, sp.prompt, sp.tables, sp.ps)
			coll.Finish(tr)
			f := featsOf(v, family)
			cell.Combined = f.combined
			cell.RegFrac, cell.LowFrac, cell.LeastFrac = f.regFrac, f.lowFrac, f.leastFrac
			cell.TCR = f.tcr
			cells[idx] = cell
			idx++
		}
	}
}

// questionsOf returns cached questions for SNAILS databases and generates
// fresh ones for foreign collections (Spider).
func questionsOf(b *datasets.Built) []nlq.Question {
	if qs := Questions(b.Name); qs != nil {
		return qs
	}
	return nlq.Generate(b)
}

func runCell(ctx context.Context, b *datasets.Built, q nlq.Question, goldIDs sqlparse.IdentifierSet,
	gold *sqldb.Result, be backend.Backend, v schema.Variant, prompt string, tables []string, ps *llm.PromptSchema) Cell {

	out := workflow.RunWithSchemaCtx(ctx, workflow.RunInput{B: b, Q: q, Variant: v, Backend: be}, prompt, tables, ps)
	cell := Cell{
		Model:      be.Name(),
		Backend:    be.Name(),
		DB:         b.Name,
		Variant:    v,
		QuestionID: q.ID,
		GoldIDs:    goldIDs,
		ParseOK:    out.ParseOK,
	}

	if out.ParseOK {
		pe := predExecution(ctx, b, out.NativeSQL)
		if pe.parseOK {
			cell.PredIDs = pe.ids
			cell.Link = evalx.QueryLinking(goldIDs, cell.PredIDs)
			if pe.execOK {
				tr := trace.FromContext(ctx)
				t0 := tr.Now()
				outcome := evalx.CompareResults(gold, pe.res)
				if outcome == evalx.MatchYes && q.Ordered {
					outcome = evalx.OrderedCompare(gold, pe.res)
				}
				tr.Span(trace.StageMatch, t0)
				cell.ExecCorrect = outcome == evalx.MatchYes
			}
		}
	}

	if outcome := countOutcome(&cell); outcome != outcomeMatch {
		slog.DebugContext(ctx, "sweep cell missed",
			slog.String("model", be.Name()),
			slog.String("db", b.Name),
			slog.String("variant", v.String()),
			slog.Int("question_id", q.ID),
			slog.String("outcome", Outcomes[outcome]))
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
	return cell
}

// natFeatures are the query-level naturalness measures the correlation
// tables use, hoisted out of runCell because they are model-independent (up
// to tokenizer family).
type natFeatures struct {
	combined, regFrac, lowFrac, leastFrac, tcr float64
}

// naturalnessFeatures derives the levels of the gold identifiers as the
// prompt variant renders them, and their tokenizer TCR.
func naturalnessFeatures(b *datasets.Built, goldIDs sqlparse.IdentifierSet, family string, v schema.Variant) natFeatures {
	var levels []naturalness.Level
	tok := token.ForModel(family)
	var tcrSum float64
	n := 0
	for _, id := range goldIDs.Sorted() {
		var lvl naturalness.Level
		if l, ok := v.Level(); ok {
			lvl = l
		} else if nl, ok := b.Schema.IdentifierLevel(id); ok {
			lvl = nl
		} else {
			continue
		}
		levels = append(levels, lvl)
		rendered := b.Schema.RenameVariant(id, v)
		tcrSum += tok.TCR(rendered)
		n++
	}
	var f natFeatures
	f.combined = naturalness.CombinedOf(levels)
	f.regFrac, f.lowFrac, f.leastFrac = naturalness.Proportions(levels)
	if n > 0 {
		f.tcr = tcrSum / float64(n)
	}
	return f
}

// tokenizerFor maps a model profile to its tokenizer family.
func tokenizerFor(model string) string {
	switch model {
	case "Phind-CodeLlama-34B-v2", "CodeS":
		return token.ModelCodeLlama
	default:
		return token.ModelGPT
	}
}

// Filter returns the cells matching the predicate.
func (s *Sweep) Filter(keep func(*Cell) bool) []Cell {
	n := 0
	for i := range s.Cells {
		if keep(&s.Cells[i]) {
			n++
		}
	}
	out := make([]Cell, 0, n)
	for i := range s.Cells {
		if keep(&s.Cells[i]) {
			out = append(out, s.Cells[i])
		}
	}
	return out
}

// ModelNames returns the evaluated model names in reporting order.
func ModelNames() []string {
	out := make([]string, 0, 6)
	for _, p := range llm.Profiles() {
		out = append(out, p.Name)
	}
	return out
}
