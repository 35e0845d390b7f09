package experiments_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/experiments"
	"github.com/snails-bench/snails/internal/server"
)

// TestServerVerdictsMatchSweep pins that /v1/infer and the sweep score a
// cell identically: for every cell of an ordered question, plus every 97th
// cell of the grid, the response's valid/recall/precision/f1/exec_correct
// equal the cached sweep's cell. The server evaluates through its own
// evaluator, so nothing is shared but the code.
func TestServerVerdictsMatchSweep(t *testing.T) {
	const stride = 97
	ordered := map[string]bool{}
	for _, b := range datasets.All() {
		for _, q := range experiments.Questions(b.Name) {
			if q.Ordered {
				ordered[fmt.Sprintf("%s#%d", b.Name, q.ID)] = true
			}
		}
	}

	s := server.New(server.Config{CacheEntries: -1, RequestTimeout: time.Minute, CanonicalLogEvery: -1})
	defer s.Drain()
	checked, checkedOrdered := 0, 0
	for i, c := range experiments.Run().Cells {
		isOrdered := ordered[fmt.Sprintf("%s#%d", c.DB, c.QuestionID)]
		if !isOrdered && i%stride != 0 {
			continue
		}
		body := fmt.Sprintf(`{"db":%q,"model":%q,"variant":%q,"question_id":%d}`,
			c.DB, c.Model, c.Variant.String(), c.QuestionID)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body.String())
		}
		var got server.InferResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Valid != c.ParseOK || got.Recall != c.Link.Recall || got.Precision != c.Link.Precision ||
			got.F1 != c.Link.F1 || got.ExecCorrect != c.ExecCorrect {
			t.Errorf("%s: server valid=%v r=%v p=%v f1=%v exec=%v; sweep valid=%v r=%v p=%v f1=%v exec=%v",
				body, got.Valid, got.Recall, got.Precision, got.F1, got.ExecCorrect,
				c.ParseOK, c.Link.Recall, c.Link.Precision, c.Link.F1, c.ExecCorrect)
		}
		checked++
		if isOrdered {
			checkedOrdered++
		}
	}
	if checkedOrdered == 0 || checked == checkedOrdered {
		t.Fatalf("checked %d cells, %d of them ordered: want both kinds", checked, checkedOrdered)
	}
	t.Logf("checked %d cells, %d of them ordered", checked, checkedOrdered)
}
