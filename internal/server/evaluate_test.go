package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"testing"
	"time"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/evalx"
	"github.com/snails-bench/snails/internal/experiments"
	"github.com/snails-bench/snails/internal/nlq"
	"github.com/snails-bench/snails/internal/schema"
	"github.com/snails-bench/snails/internal/sqlexec"
)

// fixedSQLBackend answers every request with one SQL string.
type fixedSQLBackend struct{ name, sql string }

func (f fixedSQLBackend) Name() string { return f.name }
func (f fixedSQLBackend) Capabilities() backend.Capabilities {
	return backend.Capabilities{Deterministic: true}
}
func (f fixedSQLBackend) Infer(context.Context, backend.Request) (backend.Result, error) {
	return backend.Result{SQL: f.sql}, nil
}

// topOrderGold matches the gold of a "top k by measure" question.
var topOrderGold = regexp.MustCompile(`^SELECT TOP (\d+) (\w+) FROM (\w+) ORDER BY (\w+) DESC$`)

// reversedOrderCase finds an ordered benchmark question and a query that
// returns its gold rows in the opposite order: the same top-k rows, sorted
// ascending instead of descending.
func reversedOrderCase(t *testing.T) (db string, q nlq.Question, reversed string) {
	t.Helper()
	for _, b := range datasets.All() {
		for _, q := range experiments.Questions(b.Name) {
			m := topOrderGold.FindStringSubmatch(q.Gold)
			if !q.Ordered || m == nil || m[2] == m[4] {
				continue
			}
			k, proj, table, measure := m[1], m[2], m[3], m[4]
			rev := fmt.Sprintf("SELECT %s FROM (SELECT TOP %s %s, %s FROM %s ORDER BY %s DESC) AS r ORDER BY %s ASC",
				proj, k, proj, measure, table, measure, measure)
			gold, err := sqlexec.ExecuteSQL(b.Instance, q.Gold)
			if err != nil {
				t.Fatalf("%s q%d gold: %v", b.Name, q.ID, err)
			}
			res, err := sqlexec.ExecuteSQL(b.Instance, rev)
			if err != nil {
				continue
			}
			if evalx.CompareResults(gold, res) == evalx.MatchYes && evalx.OrderedCompare(gold, res) != evalx.MatchYes {
				return b.Name, q, rev
			}
		}
	}
	t.Fatal("no ordered question whose gold rows can be reversed")
	return "", nlq.Question{}, ""
}

// TestInferOrderedQuestionChecksOrder: for an ordered question, a prediction
// returning the gold rows in a different order is not an execution match on
// /v1/infer, exactly as in the sweep. The gold itself still matches.
func TestInferOrderedQuestionChecksOrder(t *testing.T) {
	db, q, reversed := reversedOrderCase(t)
	s := New(Config{
		CacheEntries:   -1,
		RequestTimeout: 30 * time.Second,
		Backends: []backend.Backend{
			fixedSQLBackend{name: "reverser", sql: reversed},
			fixedSQLBackend{name: "oracle", sql: q.Gold},
		},
	})
	for _, tc := range []struct {
		model string
		want  bool
	}{{"reverser", false}, {"oracle", true}} {
		rec := do(s, http.MethodPost, "/v1/infer",
			fmt.Sprintf(`{"db":%q,"model":%q,"variant":"native","question_id":%d}`, db, tc.model, q.ID), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.model, rec.Code, rec.Body.String())
		}
		var resp InferResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Valid || resp.ExecCorrect != tc.want {
			t.Errorf("%s on %s q%d: valid=%v exec_correct=%v, want valid and exec_correct=%v (sql %q)",
				tc.model, db, q.ID, resp.Valid, resp.ExecCorrect, tc.want, resp.NativeSQL)
		}
	}
}

// TestInferGoldFailure: a gold query that does not execute answers 500
// gold_failed from a pool worker, and the worker lives on to serve the next
// request.
func TestInferGoldFailure(t *testing.T) {
	s := New(Config{CacheEntries: -1, RequestTimeout: 30 * time.Second, Workers: 1})
	b, _ := datasets.Get("ASIS")
	be, apiErr := s.backendFor("gpt-4o")
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	for i, gold := range []string{
		"SELECT no_such_column FROM no_such_table", // parses, does not execute
		"SELECT FROM WHERE",                        // does not parse
	} {
		q := experiments.Questions("ASIS")[0]
		q.ID, q.Gold = 1<<20+i, gold // ids no benchmark question has
		out := make(chan *apiError, 1)
		if !s.pool.submit(func() {
			_, err := s.runInfer(b, schema.VariantNative, q, be, nil)
			out <- err
		}) {
			t.Fatal("pool refused the job")
		}
		err := <-out
		if err == nil || err.Status != http.StatusInternalServerError || err.Code != "gold_failed" {
			t.Fatalf("gold %q: got %+v, want 500 gold_failed", gold, err)
		}
	}
	if rec := do(s, http.MethodPost, "/v1/infer", validBody("/v1/infer"), nil); rec.Code != http.StatusOK {
		t.Fatalf("request after a gold failure: %d: %s", rec.Code, rec.Body.String())
	}
}

// TestEvaluatorMemoMetrics: the gold and pred cache classes read this
// server's evaluator. A cold /v1/infer misses both memos; the same question
// under a second model hits the gold memo.
func TestEvaluatorMemoMetrics(t *testing.T) {
	s := newTestServer()
	infer := func(model string) {
		t.Helper()
		rec := do(s, http.MethodPost, "/v1/infer",
			fmt.Sprintf(`{"db":"ASIS","model":%q,"variant":"native","question_id":1}`, model), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", model, rec.Code, rec.Body.String())
		}
		var resp InferResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Valid {
			t.Fatalf("%s: prediction did not parse, so the pred memo was not consulted", model)
		}
	}
	series := func(samples map[string]float64, family, class string) float64 {
		return samples[family+`{cache="`+class+`"}`]
	}

	_, before := parseScrape(t, scrape(t, s))
	infer("gpt-4o")
	_, cold := parseScrape(t, scrape(t, s))
	for _, class := range []string{"gold", "pred"} {
		if d := series(cold, "snails_cache_misses_total", class) - series(before, "snails_cache_misses_total", class); d < 1 {
			t.Errorf("cold infer moved %s misses by %v, want >= 1", class, d)
		}
		if v := series(cold, "snails_cache_entries", class); v < 1 {
			t.Errorf("%s entries after a cold infer = %v, want >= 1", class, v)
		}
	}
	if d := series(cold, "snails_cache_hits_total", "gold") - series(before, "snails_cache_hits_total", "gold"); d != 0 {
		t.Errorf("cold infer moved gold hits by %v, want 0", d)
	}

	infer("gpt-3.5")
	_, warm := parseScrape(t, scrape(t, s))
	if d := series(warm, "snails_cache_hits_total", "gold") - series(cold, "snails_cache_hits_total", "gold"); d != 1 {
		t.Errorf("second model moved gold hits by %v, want 1", d)
	}
	if d := series(warm, "snails_cache_misses_total", "gold") - series(cold, "snails_cache_misses_total", "gold"); d != 0 {
		t.Errorf("second model moved gold misses by %v, want 0", d)
	}
}
