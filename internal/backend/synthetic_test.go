package backend

import (
	"context"
	"reflect"
	"testing"

	"github.com/snails-bench/snails/internal/llm"
)

// TestSyntheticMatchesModel pins the adapter to the raw model call path: a
// Synthetic backend must be a zero-cost rename of llm.Model.InferOn, which
// is what makes config-driven synthetic sweeps byte-identical to the
// pre-interface pipeline.
func TestSyntheticMatchesModel(t *testing.T) {
	prompt := "#Observations(Id INTEGER, Species TEXT, SiteId INTEGER)\n#Sites(Id INTEGER, Name TEXT)"
	for _, p := range llm.Profiles() {
		be := NewSynthetic(p)
		if be.Name() != p.Name {
			t.Fatalf("Name = %q, want %q", be.Name(), p.Name)
		}
		caps := be.Capabilities()
		if !caps.Deterministic {
			t.Fatalf("%s: synthetic capabilities = %+v, want deterministic", p.Name, caps)
		}
		if caps.SchemaLinking != (p.FilterKeep > 0) {
			t.Fatalf("%s: SchemaLinking = %v, want %v", p.Name, caps.SchemaLinking, p.FilterKeep > 0)
		}

		task := llm.Task{SchemaKnowledge: prompt, Question: "How many observations are there?", Seed: 12345}
		want := llm.New(p).Infer(task)
		got, err := be.Infer(context.Background(), Request{
			SchemaKnowledge: task.SchemaKnowledge,
			Question:        task.Question,
			Intent:          task.Intent,
			Seed:            task.Seed,
		})
		if err != nil {
			t.Fatalf("%s: Infer: %v", p.Name, err)
		}
		if got.SQL != want.SQL || got.Invalid != want.Invalid ||
			!reflect.DeepEqual(got.FilteredTables, want.FilteredTables) {
			t.Fatalf("%s: backend %+v != model %+v", p.Name, got, want)
		}

		// With a pre-interned prompt handle the result is identical.
		got2, err := be.Infer(context.Background(), Request{
			SchemaKnowledge: task.SchemaKnowledge,
			Question:        task.Question,
			Seed:            task.Seed,
			PromptSchema:    llm.PromptSchemaOf(prompt),
		})
		if err != nil {
			t.Fatalf("%s: Infer with handle: %v", p.Name, err)
		}
		if got2.SQL != got.SQL {
			t.Fatalf("%s: handle path diverged: %q != %q", p.Name, got2.SQL, got.SQL)
		}
	}
}
