package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/evalx"
	"github.com/snails-bench/snails/internal/experiments"
	"github.com/snails-bench/snails/internal/llm"
	"github.com/snails-bench/snails/internal/sqldb"
	"github.com/snails-bench/snails/internal/sqlexec"
	"github.com/snails-bench/snails/internal/sqlparse"
	"github.com/snails-bench/snails/internal/workflow"
)

// Pipeline layers the replay times, in call order.
const (
	stPrompt = iota
	stBackend
	stParse
	stDenaturalize
	stLink
	stExec
	stMatch
	numStages
)

var stageNames = [numStages]string{"workflow.prompt", "backend.infer", "sqlparse.parse",
	"workflow.denaturalize", "evalx.link", "sqlexec.exec", "evalx.match"}

// layersRaw holds the set-up layers' times, measured in a fresh process.
type layersRaw struct {
	DatasetsMS  float64 `json:"datasets_ms"`
	QuestionsMS float64 `json:"questions_ms"`
	TrainMS     float64 `json:"train_ms"`
	ModelsMS    float64 `json:"models_ms"`
}

// replayRaw is what the pipeline replay measured.
type replayRaw struct {
	Cells      int              `json:"cells"`
	WallNS     int64            `json:"wall_ns"`
	SelfNS     [numStages]int64 `json:"self_ns"`
	Calls      [numStages]int   `json:"calls"`
	Mismatches int              `json:"mismatches"`
	Examples   []string         `json:"examples,omitempty"`
}

// outcome is what the sweep records of a cell's evaluation.
type outcome struct {
	parseOK, execCorrect bool
	link                 evalx.LinkScores
}

// stageClock accumulates the replay's per-stage time.
type stageClock struct {
	self  [numStages]int64
	calls [numStages]int
	last  time.Time
}

func (c *stageClock) start() { c.last = time.Now() }

// lap closes the running stage and starts the next.
func (c *stageClock) lap(st int) {
	now := time.Now()
	c.self[st] += int64(now.Sub(c.last))
	c.calls[st]++
	c.last = now
}

// replayCells runs the pipeline the sweep and the server run per cell, one
// public call per layer, timing each: PromptFor → Backend.Infer →
// sqlparse.Parse → Denaturalize → QueryLinkingSQL → sqlexec.Execute →
// CompareResults. Like the sweep, it renders each (database, question,
// variant) prompt once and decodes every model against it, and it executes
// each gold query and each distinct predicted query once per database. It
// returns each cell's outcome, indexed like keys.
func replayCells(keys []gridKey, order []int, bes map[string]backend.Backend) ([]outcome, *replayRaw, error) {
	type pred struct {
		ok  bool
		res *sqldb.Result
	}
	type rendered struct {
		text string
		ps   *llm.PromptSchema
	}
	prompts := map[string]rendered{}
	gold := map[string]*sqldb.Result{}
	preds := map[string]pred{}
	outs := make([]outcome, len(keys))
	var clk stageClock
	ctx := context.Background()
	t0 := time.Now()
	for _, i := range order {
		k := keys[i]
		b, ok := datasets.Get(k.db)
		if !ok {
			return nil, nil, fmt.Errorf("unknown database %s", k.db)
		}
		q := experiments.Questions(k.db)[k.qIndex]
		rk := fmt.Sprintf("%s#%d#%s", k.db, k.qid, k.variant)
		pr, ok := prompts[rk]
		clk.start()
		if !ok {
			text, _ := workflow.PromptFor(b, q, k.variant)
			pr = rendered{text, llm.PromptSchemaOf(text)}
			prompts[rk] = pr
			clk.lap(stPrompt)
		}
		res, err := bes[k.model].Infer(ctx, backend.Request{SchemaKnowledge: pr.text, Question: q.Text,
			Intent: q.Intent, Seed: k.seed(), PromptSchema: pr.ps})
		clk.lap(stBackend)
		if err != nil {
			return nil, nil, fmt.Errorf("replay %s q%d %s: %w", k.db, k.qid, k.model, err)
		}
		if res.Invalid {
			continue
		}
		sel, err := sqlparse.Parse(res.SQL)
		clk.lap(stParse)
		if err != nil {
			continue
		}
		o := &outs[i]
		o.parseOK = true
		native := workflow.Denaturalize(b.Schema, sel, k.variant)
		clk.lap(stDenaturalize)
		o.link = evalx.QueryLinkingSQL(q.Gold, native)
		clk.lap(stLink)

		gk := fmt.Sprintf("%s#%d", k.db, k.qid)
		g, ok := gold[gk]
		if !ok {
			gsel, err := sqlparse.Parse(q.Gold)
			clk.lap(stParse)
			if err != nil {
				return nil, nil, fmt.Errorf("gold %s: %w", gk, err)
			}
			g, err = sqlexec.Execute(b.Instance, gsel)
			clk.lap(stExec)
			if err != nil {
				return nil, nil, fmt.Errorf("gold %s: %w", gk, err)
			}
			gold[gk] = g
		}
		pk := k.db + "\x00" + native
		p, ok := preds[pk]
		if !ok {
			if psel, err := sqlparse.Parse(native); err == nil {
				clk.lap(stParse)
				r, err := sqlexec.Execute(b.Instance, psel)
				clk.lap(stExec)
				p = pred{ok: err == nil, res: r}
			} else {
				clk.lap(stParse)
			}
			preds[pk] = p
		}
		if p.ok {
			m := evalx.CompareResults(g, p.res)
			if m == evalx.MatchYes && q.Ordered {
				m = evalx.OrderedCompare(g, p.res)
			}
			clk.lap(stMatch)
			o.execCorrect = m == evalx.MatchYes
		}
	}
	return outs, &replayRaw{Cells: len(order), WallNS: int64(time.Since(t0)), SelfNS: clk.self, Calls: clk.calls}, nil
}

// compareOutcomes checks the replay's outcome of every replayed cell against
// the sweep's cell, returning the mismatch count and a few examples.
func compareOutcomes(keys []gridKey, order []int, outs []outcome, cells []experiments.Cell) (int, []string) {
	var bad int
	var ex []string
	for _, i := range order {
		c := cells[i]
		k := keys[i]
		want := outcome{parseOK: c.ParseOK, execCorrect: c.ExecCorrect, link: c.Link}
		if c.DB != k.db || c.QuestionID != k.qid || c.Model != k.model || c.Variant != k.variant || outs[i] != want {
			bad++
			if len(ex) < maxLoggedErrors {
				ex = append(ex, fmt.Sprintf("cell %d (%s q%d %s %s): replay %+v, sweep %+v", i, k.db, k.qid, k.model, k.variant, outs[i], want))
			}
		}
	}
	return bad, ex
}

// childLayers times the set-up layers in a fresh process and then, when
// asked, replays the workload's cells and proves the replay's outcomes equal
// the sweep's cells.
func childLayers(a childArgs, out io.Writer) (*childResult, error) {
	ms := func(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
	var l layersRaw
	t := time.Now()
	dbs := datasets.All()
	l.DatasetsMS = ms(t)
	t = time.Now()
	for _, b := range dbs {
		experiments.Questions(b.Name)
	}
	l.QuestionsMS = ms(t)
	t = time.Now()
	experiments.TrainedClassifier()
	l.TrainMS = ms(t)
	t = time.Now()
	bes := map[string]backend.Backend{}
	for _, be := range synthetics() {
		bes[be.Name()] = be
	}
	l.ModelsMS = ms(t)
	if err := ready(out); err != nil {
		return nil, err
	}

	res := &childResult{Layers: &l, Clients: 1}
	if a.replay == "" {
		return res, nil
	}
	keys := gridKeys()
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	if a.replay == "cold" {
		for i, r := range coldStream(keys, a.seed) {
			order[i] = r.ref
		}
	}
	outs, raw, err := replayCells(keys, order, bes)
	if err != nil {
		return nil, err
	}
	sw := experiments.RunSweep(dbs, experiments.Options{Workers: nproc()})
	raw.Mismatches, raw.Examples = compareOutcomes(keys, order, outs, sw.Cells)
	res.Replay = raw
	res.Units, res.Cells, res.Failed = len(order), len(order), raw.Mismatches
	res.TimedS = float64(raw.WallNS) / 1e9
	return res, nil
}
