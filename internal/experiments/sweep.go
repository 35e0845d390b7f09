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
	"github.com/snails-bench/snails/internal/naturalness"
	"github.com/snails-bench/snails/internal/nlq"
	"github.com/snails-bench/snails/internal/schema"
	"github.com/snails-bench/snails/internal/sqlparse"
	"github.com/snails-bench/snails/internal/token"
	"github.com/snails-bench/snails/internal/trace"
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

	// sweepEval is the sweeps' cell evaluator. Its memos live for the whole
	// process: the same gold runs for every (model, variant) pair and for
	// overlapping sweeps, and the predicted-query memo is bounded.
	sweepEval = NewEvaluator(0, 1<<16)
)

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
	in := sweepEval.question(context.Background(), b, q)
	if in.err != nil {
		panic(fmt.Sprintf("experiments: gold query failed (%s q%d): %v", b.Name, q.ID, in.err))
	}

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
		f := naturalnessFeatures(b, in.goldIDs, family, v)
		feats[k] = f
		return f
	}

	// The prompt (and its interned schema handle) depends only on the
	// variant within a job: resolve it once and let all six models decode
	// against the same handle.
	prompts := make([]*cellPrompt, len(variants))
	for vi, v := range variants {
		tr := coll.Start("sweep")
		tr.SetRequest(b.Name, v.String(), q.ID)
		prompts[vi] = in.prompt(trace.NewContext(context.Background(), tr), b, q, v)
		coll.Finish(tr)
	}

	idx := j.base
	for _, be := range backends {
		family := tokenizerFor(be.Name())
		for vi, v := range variants {
			tr := coll.Start("sweep")
			tr.SetRequest(b.Name, v.String(), q.ID)
			ctx := trace.NewContext(context.Background(), tr)
			cell, _ := sweepEval.runCell(ctx, b, q, in, be, v, prompts[vi])
			coll.Finish(tr)
			if outcome := countOutcome(&cell); outcome != outcomeMatch {
				slog.DebugContext(ctx, "sweep cell missed",
					slog.String("model", be.Name()),
					slog.String("db", b.Name),
					slog.String("variant", v.String()),
					slog.Int("question_id", q.ID),
					slog.String("outcome", Outcomes[outcome]))
			}
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
