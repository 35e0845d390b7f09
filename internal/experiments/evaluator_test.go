package experiments

import (
	"context"
	"testing"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/llm"
	"github.com/snails-bench/snails/internal/schema"
)

// TestEvaluateGoldFailure: a gold that does not parse or execute is an
// error from Evaluate, not a panic, and the failure is memoized.
func TestEvaluateGoldFailure(t *testing.T) {
	b, _ := datasets.Get("ASIS")
	be := backend.NewSynthetic(llm.Profiles()[0])
	for _, gold := range []string{
		"SELECT no_such_column FROM no_such_table",
		"SELECT FROM WHERE",
	} {
		ev := NewEvaluator(0, 0)
		q := Questions("ASIS")[0]
		q.Gold = gold
		for i := 0; i < 2; i++ {
			if _, _, err := ev.Evaluate(context.Background(), b, q, be, schema.VariantNative); err == nil {
				t.Fatalf("gold %q, call %d: Evaluate returned no error", gold, i)
			}
		}
		if h, m := ev.GoldMemo().Hits(), ev.GoldMemo().Misses(); h != 1 || m != 1 {
			t.Errorf("gold %q: memo hits/misses = %d/%d, want 1/1", gold, h, m)
		}
	}
}
