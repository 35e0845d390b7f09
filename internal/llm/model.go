package llm

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/snails-bench/snails/internal/nlq"
)

// Task is one NL-to-SQL inference request. The model sees only the prompt's
// schema rendering and the question; the structured intent carries the
// template-level meaning of the (shared, templated) English with schema
// elements referenced by natural-language phrases.
type Task struct {
	SchemaKnowledge string
	Question        string
	Intent          nlq.Intent
	// Seed individualizes deterministic noise; derive it from
	// (model, database, question, variant).
	Seed uint64
}

// Prediction is the inference output.
type Prediction struct {
	SQL string
	// FilteredTables records the schema-subsetting stage's selection for
	// workflows that have one (DIN-SQL, CodeS); nil for zero-shot.
	FilteredTables []string
	// Invalid marks generations that are not parseable SQL (the paper
	// excludes these from linking analysis).
	Invalid bool
}

// Model is a runnable synthetic LLM. A Model is safe for concurrent use: the
// profile is read-only and the linking memo is a concurrency-safe cache of
// seed-independent decode scores.
type Model struct {
	Profile  *Profile
	memo     *linkMemo
	nameSeed uint64 // hashSeed(Profile.Name), mixed into every task seed
	// ref forces the original per-identifier plan path instead of the
	// columnar fast path; used by the differential tests (NewReference).
	ref bool
}

// New returns a model for the profile.
func New(p *Profile) *Model {
	return &Model{Profile: p, memo: newLinkMemo(), nameSeed: hashSeed(p.Name)}
}

// NewReference returns a model that decodes through the original
// per-identifier plan path rather than the interned columnar engine. Its
// predictions are bit-identical to New's by contract; differential tests
// (here and in the workflow/experiments layers) enforce that, mirroring the
// planner-vs-naive pattern in internal/sqlexec.
func NewReference(p *Profile) *Model {
	m := New(p)
	m.ref = true
	return m
}

// linkerPool recycles linkers (and their filtering-stage scratch buffers)
// across Infer calls; a linker is only ever owned by one goroutine at a
// time.
var linkerPool = sync.Pool{New: func() any { return &linker{} }}

// Infer produces a SQL prediction for the task.
func (m *Model) Infer(task Task) Prediction {
	return m.InferOn(parsePromptCached(task.SchemaKnowledge), task)
}

// PromptSchemaOf parses a schema-knowledge block into the shared, memoized
// prompt-schema handle Infer uses internally. The sweep parses once per
// (db, question, variant) job and feeds the same handle to every model's
// task via InferOn.
func PromptSchemaOf(block string) *PromptSchema { return parsePromptCached(block) }

// InferOn is Infer against a pre-parsed prompt schema (which must be the
// parse of task.SchemaKnowledge).
func (m *Model) InferOn(ps *PromptSchema, task Task) Prediction {
	p := m.Profile
	l := linkerPool.Get().(*linker)
	l.reset(p, task.Seed^m.nameSeed, m.memo, !m.ref)
	defer linkerPool.Put(l)
	if len(ps.Tables) == 0 {
		return Prediction{SQL: "SELECT 1", Invalid: true}
	}

	// Occasional entirely-invalid generations (weaker models in the paper
	// produced ~137 unparseable queries across the benchmark).
	if hash01(l.seed^0xbad) < p.invalidRate() {
		return Prediction{SQL: "SELECT FROM WHERE", Invalid: true}
	}

	var pred Prediction

	// Schema filtering stage (DIN-SQL / CodeS).
	working := ps
	if p.FilterKeep > 0 {
		kept := m.filterTables(l, ps, task.Intent)
		pred.FilteredTables = kept
		working = m.subsetSchema(ps, kept)
	}

	res := m.resolve(l, working, task.Intent)
	sql := compose(task.Intent, res)

	// Structural slips scale with template complexity; the DIN-SQL
	// self-correction pass repairs them.
	complexity := templateComplexity(task.Intent.Kind)
	okProb := pow(p.StructSkill, complexity)
	if hash01(l.seed^0x57) > okProb && !p.SelfCorrect {
		sql = injectStructuralSlip(task.Intent, res, l.seed)
	}

	pred.SQL = sql
	return pred
}

func (p *Profile) invalidRate() float64 {
	switch {
	case p.StructSkill >= 0.95:
		return 0.004
	case p.StructSkill >= 0.9:
		return 0.015
	default:
		return 0.04
	}
}

func pow(b float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= b
	}
	return out
}

func templateComplexity(k nlq.Kind) int {
	switch k {
	case nlq.KindCountAll:
		return 1
	case nlq.KindListFilter, nlq.KindAggMeasure, nlq.KindCountGroup, nlq.KindNegationFilter, nlq.KindYearCount:
		return 2
	case nlq.KindGroupHaving, nlq.KindTopOrder, nlq.KindScalarMax:
		return 3
	default: // joins, subqueries
		return 4
	}
}

// numRoles sizes the per-role arrays of resolved; nlq.Role is a dense iota.
const numRoles = int(nlq.RoleJoinShared) + 1

// resolved holds the model's schema-linking decisions for one query. The
// per-role maps of earlier versions are fixed arrays (nlq.Role is dense), so
// resolve costs one allocation for the struct and none per mention.
type resolved struct {
	table     string // FROM table (as named in the prompt)
	joinTable string
	cols      [numRoles]string // resolved column per role
	colJoined [numRoles]bool   // whether the resolved column sits on the joined table
	sharedCol string           // composite-key second column
	hasJoin   bool
}

// resolve links every mention of the intent against the prompt schema.
func (m *Model) resolve(l *linker, ps *PromptSchema, in nlq.Intent) *resolved {
	r := &resolved{}

	ti, tscore, ok := l.bestTable(ps, in.TableMention)
	if !ok {
		r.table = l.hallucinateIdentifier(in.TableMention)
		ti = -1
	} else {
		kTmut, kKey := l.tmutKeys(in.TableMention, false)
		r.table = m.maybeMutate(l, ps.Tables[ti].Name, tscore, kTmut, kKey)
	}
	ji := -1
	if in.JoinTableMention != "" {
		r.hasJoin = true
		var jok bool
		ji, _, jok = l.bestTable(ps, in.JoinTableMention)
		if !jok || ji == ti {
			// Re-link excluding the primary table.
			ji = l.secondTable(ps, in.JoinTableMention, ti)
		}
		if ji >= 0 {
			kTmut, kKey := l.tmutKeys(in.JoinTableMention, true)
			r.joinTable = m.maybeMutate(l, ps.Tables[ji].Name, l.tableSim(ps, in.JoinTableMention, ji), kTmut, kKey)
		} else {
			r.joinTable = l.hallucinateIdentifier(in.JoinTableMention)
		}
	}

	for ci := range in.Columns {
		cm := &in.Columns[ci]
		pri0, pri1 := ti, ji
		if cm.OnJoined {
			pri0, pri1 = ji, ti
		}
		cti, col, score, ok := l.bestColumn(ps, cm.Phrase, pri0, pri1)
		if !ok {
			col = l.hallucinateIdentifier(cm.Phrase)
			cti = pri0
		} else {
			// Typo-like hallucination grows with linking uncertainty: a
			// confidently linked natural identifier is copied verbatim while
			// an opaque abbreviation is frequently mis-rendered. This is
			// what produces the paper's consistent recall drop at Least
			// naturalness even for the strongest models.
			uncertain := 1 - score
			if uncertain < 0 {
				uncertain = 0
			}
			mutP := m.Profile.HallucinationRate + 0.30*uncertain*uncertain
			kMut, kPhrase := l.mutKeys(cm.Phrase)
			if hash01(l.seed^kMut) < mutP {
				col = l.mutateIdentifier(col, l.seed^kPhrase)
			}
		}
		r.cols[cm.Role] = col
		r.colJoined[cm.Role] = cti >= 0 && cti == ji && r.hasJoin
		if cm.Role == nlq.RoleJoinShared {
			r.sharedCol = col
		}
	}

	// Join-column fallback: a real model defaults to same-named or id-like
	// columns when the mention fails to link.
	if r.hasJoin && (r.cols[nlq.RoleJoinChild] == "" || r.cols[nlq.RoleJoinParent] == "") {
		child, parent := idLikeColumn(ps, ti), idLikeColumn(ps, ji)
		if r.cols[nlq.RoleJoinChild] == "" {
			r.cols[nlq.RoleJoinChild] = child
		}
		if r.cols[nlq.RoleJoinParent] == "" {
			r.cols[nlq.RoleJoinParent] = parent
		}
	}
	return r
}

// maybeMutate applies the uncertainty-scaled typo hallucination to a linked
// identifier. Table names are as vulnerable as columns: the paper observes
// models dropping tbl_ prefixes and re-casing opaque table names. The hash
// keys are hashSeed("tmut", key) and hashSeed(key) for the historical
// "tbl:"/"jtbl:" mention keys, precomputed by the phrase intern on the fast
// path (linker.tmutKeys).
func (m *Model) maybeMutate(l *linker, name string, score float64, kTmut, kKey uint64) string {
	uncertain := 1 - score
	if uncertain < 0 {
		uncertain = 0
	}
	mutP := m.Profile.HallucinationRate*0.5 + 0.22*uncertain*uncertain
	if hash01(l.seed^kTmut) < mutP {
		return l.mutateIdentifier(name, l.seed^kKey)
	}
	return name
}

// tmutKeys returns (hashSeed("tmut", key), hashSeed(key)) for the table-
// mutation key "tbl:"+phrase (or "jtbl:"+phrase when joined), from the
// phrase intern on the fast path and by direct hashing on the reference
// path.
func (l *linker) tmutKeys(phrase string, joined bool) (kTmut, kKey uint64) {
	if l.fast {
		pi := phraseInfoFor(phrase)
		if joined {
			return pi.kTmutJtbl, pi.kJtbl
		}
		return pi.kTmutTbl, pi.kTbl
	}
	key := "tbl:" + phrase
	if joined {
		key = "jtbl:" + phrase
	}
	return hashSeed("tmut", key), hashSeed(key)
}

// mutKeys returns (hashSeed("mut", phrase), hashSeed(phrase)) for the
// column-mutation draws.
func (l *linker) mutKeys(phrase string) (kMut, kPhrase uint64) {
	if l.fast {
		pi := phraseInfoFor(phrase)
		return pi.kMut, pi.kPhrase
	}
	return hashSeed("mut", phrase), hashSeed(phrase)
}

func idLikeColumn(ps *PromptSchema, ti int) string {
	if ti < 0 || ti >= len(ps.Tables) {
		return "id"
	}
	for _, c := range ps.Tables[ti].Columns {
		if strings.HasSuffix(strings.ToLower(c.Name), "id") {
			return c.Name
		}
	}
	return ps.Tables[ti].Columns[0].Name
}

// filterTables implements the schema-subsetting stage: tables are ranked by
// their link score against the question's mentions and the top-K kept. Less
// natural table names rank lower, reproducing the Figure 12 recall drop.
func (m *Model) filterTables(l *linker, ps *PromptSchema, in nlq.Intent) []string {
	if l.fastOn(ps) {
		return m.fastFilterTables(l, ps, in)
	}
	type scored struct {
		name  string
		score float64
	}
	var all []scored
	mentions := []string{in.TableMention}
	if in.JoinTableMention != "" {
		mentions = append(mentions, in.JoinTableMention)
	}
	// Fetch each phrase's precompiled scoring table once; the per-table
	// maxima below are order-insensitive, so hoisting the phrase loop out of
	// the table loop changes nothing but the lookup count.
	mplans := make([][]*simPlan, len(mentions))
	for mi, mn := range mentions {
		mplans[mi] = l.tablePlansFor(ps, mn)
	}
	cplans := make([][][]*simPlan, len(in.Columns))
	for ci := range in.Columns {
		cplans[ci] = l.colPlansFor(ps, in.Columns[ci].Phrase)
	}
	for i := range ps.Tables {
		t := &ps.Tables[i]
		best := 0.0
		for mi := range mentions {
			if s := l.evalPlan(mplans[mi][i]); s > best {
				best = s
			}
		}
		// Column evidence: a table whose columns match the question's column
		// mentions is likely relevant even if its own name is opaque.
		for ci := range in.Columns {
			for _, cp := range cplans[ci][i] {
				if s := 0.6 * l.evalPlan(cp); s > best {
					best = s
				}
			}
		}
		best += l.noiseKeyed(tableNoiseKey(t, "filter"))
		all = append(all, scored{t.Name, best})
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].score > all[b].score })
	keep := m.Profile.FilterKeep
	if keep > len(all) {
		keep = len(all)
	}
	out := make([]string, 0, keep)
	for _, s := range all[:keep] {
		out = append(out, s.name)
	}
	return out
}

// fastFilterTables is filterTables on the columnar path: the per-phrase
// slabs are fetched once, the evidence maxima walk flat index ranges in the
// same comparison order as the reference loop, and the ranking runs a
// stable insertion sort over a pooled scratch slice (a stable sort's output
// is unique, so it matches sort.SliceStable exactly). Only the returned
// keep-list is allocated.
func (m *Model) fastFilterTables(l *linker, ps *PromptSchema, in nlq.Intent) []string {
	in2 := ps.intern
	root := in2.root
	mslabs := l.slabScratch[:0]
	mslabs = append(mslabs, l.tabSlabFor(root, in.TableMention))
	if in.JoinTableMention != "" {
		mslabs = append(mslabs, l.tabSlabFor(root, in.JoinTableMention))
	}
	groups := l.groupScratch[:0]
	for ci := range in.Columns {
		g := l.colGroupFor(root, in.Columns[ci].Phrase)
		groups = append(groups, g)
		// Materialize phrase-major: every table's sub-slab for one phrase in
		// a row, so the builds share the phrase's decode-dedup scratch.
		for ri := range root.tabs {
			l.colTabIn(g, root, in.Columns[ci].Phrase, ri)
		}
	}
	l.slabScratch = mslabs[:0]
	l.groupScratch = groups[:0]

	all := l.scoreScratch[:0]
	for i := range ps.Tables {
		ri := int(in2.tabMap[i])
		best := 0.0
		for mi := range mslabs {
			if s := l.evalSlab(mslabs[mi], ri); s > best {
				best = s
			}
		}
		// Column evidence: a table whose columns match the question's column
		// mentions is likely relevant even if its own name is opaque.
		for ci := range groups {
			cs := l.colTabIn(groups[ci], root, in.Columns[ci].Phrase, ri)
			for k := 0; k < len(cs.flags); k++ {
				if s := 0.6 * l.evalSlab(cs, k); s > best {
					best = s
				}
			}
		}
		best += l.noiseKeyed(root.nkFilter[ri])
		all = append(all, scoredName{ps.Tables[i].Name, best})
	}
	l.scoreScratch = all[:0]
	// Stable insertion sort, descending: elements move left only past
	// strictly smaller scores, so equal scores keep their original order.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].score > all[j-1].score; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	keep := m.Profile.FilterKeep
	if keep > len(all) {
		keep = len(all)
	}
	out := make([]string, 0, keep)
	for _, s := range all[:keep] {
		out = append(out, s.name)
	}
	return out
}

// subsetSchema memoizes subsetting per (schema, keep list): the filtering
// stage selects from a small set of table combinations per schema, and a
// stable *PromptSchema pointer per combination lets the downstream linking
// calls hit the slab memo instead of rebuilding it every cell. The memo
// lives on the schema intern (subsetting is model-independent), so its
// lifetime is bounded by the parse cache that owns the intern.
func (m *Model) subsetSchema(ps *PromptSchema, keep []string) *PromptSchema {
	if ps.intern == nil {
		return subsetSchema(ps, keep)
	}
	key := strings.Join(keep, "\x1f")
	return ps.intern.subsets.GetOrCompute(key, func() *PromptSchema {
		return subsetSchema(ps, keep)
	})
}

func subsetSchema(ps *PromptSchema, keep []string) *PromptSchema {
	kept := map[string]struct{}{}
	for _, k := range keep {
		kept[strings.ToUpper(k)] = struct{}{}
	}
	out := &PromptSchema{}
	var idx []int32
	for i, t := range ps.Tables {
		if _, ok := kept[strings.ToUpper(t.Name)]; ok {
			out.Tables = append(out.Tables, t)
			idx = append(idx, int32(i))
		}
	}
	if ps.intern != nil {
		// Subsets intern as index views onto the parent: every keep-list
		// combination replays the parent's columnar slabs instead of
		// compiling its own grids (the filtering models otherwise produce
		// thousands of distinct subset schemas per sweep).
		out.intern = internSubset(ps.intern, idx)
	} else {
		out.intern = internSchema(out)
	}
	return out
}

// --- composition ---------------------------------------------------------------

// compose renders the SQL for the intent using the model's resolved
// identifiers. Composition mirrors the template grammar: the paper observes
// that modern LLMs almost always emit structurally valid SQL, with errors
// concentrated in identifier selection.
func compose(in nlq.Intent, r *resolved) string {
	q := func(role nlq.Role) string { return r.cols[role] }
	qual := func(role nlq.Role) string {
		if !r.hasJoin {
			return q(role)
		}
		if r.colJoined[role] {
			return "p." + q(role)
		}
		return "c." + q(role)
	}
	switch in.Kind {
	case nlq.KindCountAll:
		return fmt.Sprintf("SELECT COUNT(*) FROM %s", r.table)
	case nlq.KindListFilter:
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s = '%s'",
			q(nlq.RoleProjection), r.table, q(nlq.RoleFilter), esc(in.FilterValue))
	case nlq.KindNegationFilter:
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s <> '%s'",
			q(nlq.RoleProjection), r.table, q(nlq.RoleFilter), esc(in.FilterValue))
	case nlq.KindCountGroup:
		g := q(nlq.RoleGroup)
		return fmt.Sprintf("SELECT %s, COUNT(*) FROM %s GROUP BY %s", g, r.table, g)
	case nlq.KindAggMeasure:
		return fmt.Sprintf("SELECT %s(%s) FROM %s", in.Agg, q(nlq.RoleAggArg), r.table)
	case nlq.KindGroupHaving:
		g := q(nlq.RoleGroup)
		return fmt.Sprintf("SELECT %s FROM %s GROUP BY %s HAVING COUNT(*) > %d",
			g, r.table, g, in.HavingK)
	case nlq.KindTopOrder:
		return fmt.Sprintf("SELECT TOP %d %s FROM %s ORDER BY %s DESC",
			in.TopK, q(nlq.RoleProjection), r.table, q(nlq.RoleOrder))
	case nlq.KindScalarMax:
		mcol := q(nlq.RoleAggArg)
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s = (SELECT MAX(%s) FROM %s)",
			q(nlq.RoleProjection), r.table, mcol, mcol, r.table)
	case nlq.KindYearCount:
		return fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE YEAR(%s) = %d",
			r.table, q(nlq.RoleFilter), in.Year)
	case nlq.KindJoinList:
		return fmt.Sprintf("SELECT p.%s FROM %s c JOIN %s p ON c.%s = p.%s WHERE %s = '%s'",
			q(nlq.RoleProjection), r.table, r.joinTable,
			q(nlq.RoleJoinChild), q(nlq.RoleJoinParent),
			qual(nlq.RoleFilter), esc(in.FilterValue))
	case nlq.KindJoinGroup:
		g := q(nlq.RoleGroup)
		return fmt.Sprintf("SELECT p.%s, COUNT(*) FROM %s c JOIN %s p ON c.%s = p.%s GROUP BY p.%s",
			g, r.table, r.joinTable, q(nlq.RoleJoinChild), q(nlq.RoleJoinParent), g)
	case nlq.KindCKJoin:
		g := q(nlq.RoleGroup)
		return fmt.Sprintf("SELECT p.%s, COUNT(*) FROM %s c JOIN %s p ON c.%s = p.%s AND c.%s = p.%s GROUP BY p.%s",
			g, r.table, r.joinTable, q(nlq.RoleJoinChild), q(nlq.RoleJoinParent),
			r.sharedCol, r.sharedCol, g)
	case nlq.KindNotExists:
		// Primary mention is the parent here (mirrors the template).
		return fmt.Sprintf("SELECT %s FROM %s p WHERE NOT EXISTS (SELECT %s FROM %s WHERE %s = p.%s)",
			q(nlq.RoleProjection), r.table, q(nlq.RoleJoinChild), r.joinTable,
			q(nlq.RoleJoinChild), q(nlq.RoleJoinParent))
	case nlq.KindInSubquery:
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s IN (SELECT %s FROM %s WHERE %s = '%s')",
			q(nlq.RoleProjection), r.table, q(nlq.RoleJoinParent),
			q(nlq.RoleJoinChild), r.joinTable, q(nlq.RoleFilter), esc(in.FilterValue))
	default:
		return fmt.Sprintf("SELECT * FROM %s", r.table)
	}
}

// injectStructuralSlip degrades the composed query with one of the
// skeleton-level mistakes weaker models make.
func injectStructuralSlip(in nlq.Intent, r *resolved, seed uint64) string {
	switch seed % 4 {
	case 0:
		// Drop the WHERE clause / threshold.
		stripped := in
		stripped.FilterValue = ""
		switch in.Kind {
		case nlq.KindListFilter, nlq.KindNegationFilter:
			return fmt.Sprintf("SELECT %s FROM %s", r.cols[nlq.RoleProjection], r.table)
		case nlq.KindYearCount:
			return fmt.Sprintf("SELECT COUNT(*) FROM %s", r.table)
		}
		return compose(stripped, r)
	case 1:
		// Wrong aggregate.
		wrong := in
		switch in.Agg {
		case "AVG":
			wrong.Agg = "SUM"
		case "SUM":
			wrong.Agg = "AVG"
		case "MAX":
			wrong.Agg = "MIN"
		default:
			wrong.Agg = "MAX"
		}
		if in.Kind == nlq.KindAggMeasure {
			return compose(wrong, r)
		}
		return fmt.Sprintf("SELECT * FROM %s", r.table)
	case 2:
		// Forget the ordering direction / grouping column.
		if in.Kind == nlq.KindTopOrder {
			return fmt.Sprintf("SELECT TOP %d %s FROM %s ORDER BY %s",
				in.TopK, r.cols[nlq.RoleProjection], r.table, r.cols[nlq.RoleOrder])
		}
		return fmt.Sprintf("SELECT * FROM %s", r.table)
	default:
		// Bare scan of the linked table.
		return fmt.Sprintf("SELECT * FROM %s", r.table)
	}
}

func esc(s string) string { return strings.ReplaceAll(s, "'", "''") }
