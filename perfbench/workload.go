package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/experiments"
	"github.com/snails-bench/snails/internal/schema"
	"github.com/snails-bench/snails/internal/workflow"
)

// gridKey is one cell of the paper's evaluation grid.
type gridKey struct {
	db      string
	qid     int
	qIndex  int // position in experiments.Questions(db)
	model   string
	variant schema.Variant
}

// gridKeys enumerates the grid in the sweep's cell order: database (Table 2
// order), question, model, variant. Index i of the result is cell i of
// experiments.RunSweep(datasets.All(), ...) and line i of Sweep.WriteCells.
func gridKeys() []gridKey {
	var keys []gridKey
	for _, db := range datasets.Names {
		for qi, q := range experiments.Questions(db) {
			for _, m := range experiments.ModelNames() {
				for _, v := range schema.Variants {
					keys = append(keys, gridKey{db: db, qid: q.ID, qIndex: qi, model: m, variant: v})
				}
			}
		}
	}
	return keys
}

// seed is the decode seed the pipeline derives for the cell; backend calls
// carry it, which is how the benchmark matches a call to its cell.
func (k gridKey) seed() uint64 { return workflow.Seed(k.model, k.db, k.qid, k.variant) }

func (k gridKey) body() string {
	return fmt.Sprintf(`{"db":%q,"model":%q,"variant":%q,"question_id":%d}`,
		k.db, k.model, strings.ToLower(k.variant.String()), k.qid)
}

// request is one generated HTTP request. ref indexes the reference digest
// its response body must match; seed is the decode seed of a /v1/infer
// request's cell (0 for other endpoints).
type request struct {
	path, body string
	ref        int
	seed       uint64
}

// coldStream is every grid cell once as POST /v1/infer, in a seed-shuffled
// order. ref is the cell's grid index.
func coldStream(keys []gridKey, seed int64) []request {
	reqs := make([]request, len(keys))
	for i, k := range keys {
		reqs[i] = request{path: "/v1/infer", body: k.body(), ref: i, seed: k.seed()}
	}
	shuffle(reqs, seed)
	return reqs
}

// hotCycle is the length of the hot mix before it repeats: the period of
// every modulus the mix below uses.
const hotCycle = 3360

// hotMix is the traffic mix of the repository's serve load generator: six of
// every eight requests are /v1/infer over a seven-question window of four
// databases, two models and three variants, and the other two are
// /v1/classify, /v1/modify and /v1/link. Every request repeats many times a
// cycle, so a warm response cache answers nearly all of them.
func hotMix() []request {
	dbs := []string{"ASIS", "ATBI", "CWO", "KIS"}
	models := []string{"gpt-4o", "gpt-3.5"}
	variants := []schema.Variant{schema.VariantNative, schema.VariantRegular, schema.VariantLeast}
	reqs := make([]request, 0, hotCycle)
	for i := 0; i < hotCycle; i++ {
		switch i % 8 {
		case 6:
			switch i % 3 {
			case 0:
				reqs = append(reqs, request{path: "/v1/classify",
					body: fmt.Sprintf(`{"identifiers":["tbl_emp_%d","vegetation_height","xqz"]}`, i%5)})
			case 1:
				reqs = append(reqs, request{path: "/v1/modify", body: `{"op":"expand","identifier":"veg_hght"}`})
			default:
				reqs = append(reqs, request{path: "/v1/classify", body: fmt.Sprintf(`{"db":%q}`, dbs[i%len(dbs)])})
			}
		case 7:
			reqs = append(reqs, request{path: "/v1/link",
				body: `{"gold_sql":"SELECT a FROM t","pred_sql":"SELECT a FROM t WHERE b = 1"}`})
		default:
			block := i / 8
			k := gridKey{db: dbs[block%len(dbs)], qid: (i % 7) + 1, model: models[i%len(models)],
				variant: variants[(block/len(dbs))%len(variants)]}
			reqs = append(reqs, request{path: "/v1/infer", body: k.body(), seed: k.seed()})
		}
	}
	return reqs
}

// hotKeys lists the distinct requests of the hot mix in sorted order; their
// positions are the refs of the hot reference digests.
func hotKeys() []request {
	seen := map[string]request{}
	for _, r := range hotMix() {
		seen[r.path+" "+r.body] = request{path: r.path, body: r.body, seed: r.seed}
	}
	names := make([]string, 0, len(seen))
	for k := range seen {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]request, len(names))
	for i, k := range names {
		out[i] = seen[k]
		out[i].ref = i
	}
	return out
}

// hotStream is one seed-shuffled cycle of the hot mix; clients walk it
// round and round. The same stream feeds serve-hot and cluster-hot: shuffled,
// consecutive requests address different keys, so a cluster's shards are
// loaded at once rather than in turns.
func hotStream(seed int64) []request {
	keys := hotKeys()
	ref := make(map[string]int, len(keys))
	for _, k := range keys {
		ref[k.path+" "+k.body] = k.ref
	}
	reqs := hotMix()
	for i := range reqs {
		reqs[i].ref = ref[reqs[i].path+" "+reqs[i].body]
	}
	shuffle(reqs, seed)
	return reqs
}

func shuffle(reqs []request, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
}
