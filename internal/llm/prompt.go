package llm

import (
	"strings"

	"github.com/snails-bench/snails/internal/memo"
)

// PromptColumn is one column as seen in the schema-knowledge prompt.
type PromptColumn struct {
	Name string
	Type string
}

// PromptTable is one table line of the schema-knowledge prompt.
type PromptTable struct {
	Name    string
	Columns []PromptColumn

	// Precomputed seed-independent noise hash keys (linker.noiseKeyed): the
	// candidate loops draw per-candidate noise thousands of times per cell
	// and the UPPER+hash key material is schema-static. primed is false for
	// hand-assembled literals, which fall back to hashing on the fly.
	primed                      bool
	nkTable, nkTable2, nkFilter uint64
	nkColumns                   []uint64
}

// prime precomputes the noise hash keys.
func (t *PromptTable) prime() {
	up := strings.ToUpper(t.Name)
	t.nkTable = hashSeed("table", up)
	t.nkTable2 = hashSeed("table2", up)
	t.nkFilter = hashSeed("filter", up)
	t.nkColumns = make([]uint64, len(t.Columns))
	for i := range t.Columns {
		t.nkColumns[i] = hashSeed("column", strings.ToUpper(t.Name+"."+t.Columns[i].Name))
	}
	t.primed = true
}

// PromptSchema is the model's view of the database: exactly what the prompt
// text conveys, nothing more. Models never see gold identifiers or native
// names — only the (possibly naturalness-modified) prompt rendering.
type PromptSchema struct {
	Tables []PromptTable

	// intern is the dense-id interning of the schema's identifiers and the
	// anchor for its columnar score slabs (see intern.go). ParsePrompt and
	// subsetSchema populate it; hand-assembled literals leave it nil and the
	// linker falls back to the reference path, the same convention the
	// primed noise keys follow.
	intern *schemaIntern
}

// ParsePrompt recovers the schema graph from a schema-knowledge block in the
// paper's "#Table(Col Type, ...)" format. Unparseable lines are skipped (a
// real LLM degrades gracefully on malformed prompt content).
func ParsePrompt(block string) *PromptSchema {
	ps := &PromptSchema{}
	for _, line := range strings.Split(block, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "#") {
			continue
		}
		line = strings.TrimPrefix(line, "#")
		open := strings.IndexByte(line, '(')
		if open < 0 || !strings.HasSuffix(line, ")") {
			continue
		}
		t := PromptTable{Name: strings.TrimSpace(line[:open])}
		if t.Name == "" || strings.HasPrefix(t.Name, "Database:") {
			continue
		}
		body := line[open+1 : len(line)-1]
		for _, colDef := range strings.Split(body, ",") {
			fields := strings.Fields(strings.TrimSpace(colDef))
			if len(fields) == 0 {
				continue
			}
			pc := PromptColumn{Name: fields[0]}
			if len(fields) > 1 {
				pc.Type = fields[1]
			}
			t.Columns = append(t.Columns, pc)
		}
		if len(t.Columns) > 0 {
			t.prime()
			ps.Tables = append(ps.Tables, t)
		}
	}
	ps.intern = internSchema(ps)
	return ps
}

// promptMemo caches parsed schema-knowledge blocks. The cell evaluator
// (experiments.Evaluator) asks for one per (database, question, variant) —
// 2,012 on the paper grid, per evaluator — but the grid has only 100
// distinct (database, variant, subset) prompts, so most lookups hit.
// Cached PromptSchemas are shared across models and goroutines and must be
// treated as immutable.
var promptMemo = memo.NewBounded[*PromptSchema](1 << 12)

// parsePromptCached is ParsePrompt behind a global memo keyed on the raw
// block text.
func parsePromptCached(block string) *PromptSchema {
	if ps, ok := promptMemo.Get(block); ok {
		return ps
	}
	ps := ParsePrompt(block)
	promptMemo.Put(block, ps)
	return ps
}

// Table returns the index of the named table, or -1.
func (ps *PromptSchema) Table(name string) int {
	for i := range ps.Tables {
		if strings.EqualFold(ps.Tables[i].Name, name) {
			return i
		}
	}
	return -1
}
