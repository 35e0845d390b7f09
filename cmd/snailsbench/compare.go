package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/snails-bench/snails/internal/experiments"
	"github.com/snails-bench/snails/internal/trace"
)

// The -compare mode is the benchmark regression gate: it diffs a baseline
// artifact (BENCH_sweep.json or BENCH_serve.json, auto-detected) against a
// current one, prints a per-metric delta table, and exits non-zero when any
// gated metric regressed past the tolerance or a baseline metric is missing
// from the current run. Directions are metric-aware — throughput regresses
// down, latency regresses up, workload counts must match exactly.

// direction classifies how a metric's delta is judged.
type direction int

const (
	higherBetter direction = iota // throughput: regression when it drops
	lowerBetter                   // latency / wall clock: regression when it grows
	exactCount                    // workload shape: any change invalidates the run
	infoOnly                      // reported for context, never gated
)

// compared is one row of the delta table.
type compared struct {
	name      string
	base, cur float64
	dir       direction
	missing   bool   // present in the baseline, absent from the current run
	note      string // appended to the status column, e.g. why a row is ungated
	// tolScale widens this row's tolerance by a factor (0 means 1×). Client-
	// side latency percentiles use it: they fold in loadgen scheduling and
	// connection reuse noise on top of server behavior, so they stay gated
	// but at a looser bound than the server-derived rows.
	tolScale float64
}

// tolerance applies the row's scale to the run-wide tolerance.
func (c compared) tolerance(tol float64) float64 {
	if c.tolScale > 0 {
		return tol * c.tolScale
	}
	return tol
}

// delta is the signed relative change from baseline to current.
func (c compared) delta() float64 {
	if c.base == 0 {
		return 0
	}
	return (c.cur - c.base) / c.base
}

// regressed applies the direction-aware gate at the given tolerance
// (widened by the row's tolScale, when set).
func (c compared) regressed(tol float64) bool {
	if c.missing {
		return true
	}
	tol = c.tolerance(tol)
	switch c.dir {
	case higherBetter:
		return c.delta() < -tol
	case lowerBetter:
		if c.base == 0 {
			return c.cur > 0
		}
		return c.delta() > tol
	case exactCount:
		return c.base != c.cur
	default:
		return false
	}
}

func (c compared) status(tol float64) string {
	var s string
	switch {
	case c.missing:
		s = "MISSING"
	case c.dir == exactCount && c.base != c.cur:
		s = "CHANGED"
	case c.regressed(tol):
		s = "REGRESSED"
	case c.dir == infoOnly:
		s = "info"
	default:
		s = "ok"
	}
	if c.note != "" {
		s += " (" + c.note + ")"
	}
	return s
}

// artifactKind tags which benchmark schema a JSON artifact carries.
type artifactKind string

const (
	kindSweep artifactKind = "sweep"
	kindServe artifactKind = "serve"
)

// defaultArtifact maps a baseline's kind to the committed artifact -against
// defaults to.
var defaultArtifact = map[artifactKind]string{
	kindSweep: "BENCH_sweep.json",
	kindServe: "BENCH_serve.json",
}

// loadArtifact reads a benchmark artifact and detects its kind by schema:
// BENCH_sweep.json carries cells_per_sec, BENCH_serve.json requests_per_sec.
func loadArtifact(path string) (artifactKind, *benchStats, *serveStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, nil, err
	}
	var probe struct {
		CellsPerSec    *float64 `json:"cells_per_sec"`
		RequestsPerSec *float64 `json:"requests_per_sec"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return "", nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case probe.CellsPerSec != nil:
		var st benchStats
		if err := json.Unmarshal(data, &st); err != nil {
			return "", nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		return kindSweep, &st, nil, nil
	case probe.RequestsPerSec != nil:
		var st serveStats
		if err := json.Unmarshal(data, &st); err != nil {
			return "", nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		return kindServe, nil, &st, nil
	default:
		return "", nil, nil, fmt.Errorf("%s: not a snailsbench artifact (no cells_per_sec or requests_per_sec)", path)
	}
}

// sweepRows builds the delta table for a pair of BENCH_sweep.json artifacts.
// Stage latencies are informational — they jitter at microsecond scale — but
// a stage present in the baseline must still exist in the current run.
func sweepRows(base, cur *benchStats) []compared {
	rows := []compared{
		{name: "cells", base: float64(base.Cells), cur: float64(cur.Cells), dir: exactCount},
		{name: "workers", base: float64(base.Workers), cur: float64(cur.Workers), dir: infoOnly},
		{name: "cells_per_sec", base: base.CellsPerSec, cur: cur.CellsPerSec, dir: higherBetter},
		{name: "wall_clock_seconds", base: base.WallClockSeconds, cur: cur.WallClockSeconds, dir: lowerBetter},
	}
	type stageCur struct {
		p50, total float64
	}
	curStages := map[string]stageCur{}
	for _, sg := range cur.Stages {
		curStages[sg.Stage] = stageCur{p50: sg.P50Millis, total: sg.TotalSeconds}
	}
	for _, sg := range base.Stages {
		sc, ok := curStages[sg.Stage]
		rows = append(rows, compared{
			name: "stage/" + sg.Stage + "_p50_ms", base: sg.P50Millis, cur: sc.p50,
			dir: infoOnly, missing: !ok,
		})
		// Per-stage totals localize a wall-clock regression to the pipeline
		// stage that caused it; still informational, wall_clock gates.
		rows = append(rows, compared{
			name: "stage/" + sg.Stage + "_total_seconds", base: sg.TotalSeconds, cur: sc.total,
			dir: infoOnly, missing: !ok,
		})
	}
	// Scaling-curve rows: per-worker throughput and parallel efficiency are
	// gated — a contention regression shows up at high worker counts while
	// the single-worker numbers stay clean. A worker count present in the
	// baseline curve must exist in the current one (missing-row fail), so a
	// regenerated artifact cannot silently drop the curve.
	curScaling := map[int]*experiments.ScalingPoint{}
	for i := range cur.Scaling {
		curScaling[cur.Scaling[i].Workers] = &cur.Scaling[i]
	}
	for _, pt := range base.Scaling {
		sc, ok := curScaling[pt.Workers]
		if sc == nil {
			sc = &experiments.ScalingPoint{}
		}
		prefix := fmt.Sprintf("scaling/workers=%d_", pt.Workers)

		// Efficiency at Workers > GOMAXPROCS measures scheduler
		// oversubscription, not the engine, so the row is annotated rather
		// than gated when either side ran oversubscribed. Rows from
		// pre-GOMAXPROCS artifacts (field absent, zero) stay gated.
		effDir, effNote := higherBetter, ""
		if oversubscribed(pt) || oversubscribed(*sc) {
			effDir, effNote = infoOnly, "workers>gomaxprocs"
		}
		rows = append(rows,
			compared{name: prefix + "cells_per_sec", base: pt.CellsPerSec, cur: sc.CellsPerSec, dir: higherBetter, missing: !ok},
			compared{name: prefix + "efficiency", base: pt.Efficiency, cur: sc.Efficiency, dir: effDir, missing: !ok, note: effNote},
			compared{name: prefix + "wall_clock_seconds", base: pt.WallClockSeconds, cur: sc.WallClockSeconds, dir: infoOnly, missing: !ok},
		)

		// Per-row stage presence: the baseline curve pads every pipeline
		// stage into each row (zero-count rows included), so a stage that
		// vanishes from a regenerated artifact — the sql_exec-swallowed-by-
		// the-warmup-memo bug — fails here as MISSING instead of silently
		// comparing clean. Counts themselves are informational: memo warmth
		// legitimately varies across runs.
		curStages := map[string]trace.StageSnapshot{}
		for _, sg := range sc.Stages {
			curStages[sg.Stage] = sg
		}
		for _, sg := range pt.Stages {
			c, have := curStages[sg.Stage]
			rows = append(rows, compared{
				name: prefix + "stage/" + sg.Stage + "_count",
				base: float64(sg.Count), cur: float64(c.Count),
				dir: infoOnly, missing: !have,
			})
		}
	}
	return rows
}

// oversubscribed reports a scaling row that ran more workers than scheduler
// threads; its efficiency is a property of the machine, not the code.
func oversubscribed(p experiments.ScalingPoint) bool {
	return p.GOMAXPROCS > 0 && p.Workers > p.GOMAXPROCS
}

// serveRows builds the delta table for a pair of BENCH_serve.json artifacts.
func serveRows(base, cur *serveStats) []compared {
	rows := []compared{
		{name: "requests", base: float64(base.Requests), cur: float64(cur.Requests), dir: exactCount},
		{name: "errors", base: float64(base.Errors), cur: float64(cur.Errors), dir: exactCount},
		{name: "requests_per_sec", base: base.RequestsPerSec, cur: cur.RequestsPerSec, dir: higherBetter},
		{name: "wall_clock_seconds", base: base.WallClockSeconds, cur: cur.WallClockSeconds, dir: lowerBetter},
		{name: "client_p50_ms", base: base.ClientP50Millis, cur: cur.ClientP50Millis, dir: lowerBetter,
			tolScale: 3, note: "client-side, 3x tolerance"},
		{name: "client_p99_ms", base: base.ClientP99Millis, cur: cur.ClientP99Millis, dir: lowerBetter,
			tolScale: 3, note: "client-side, 3x tolerance"},
		{name: "cache_hit_ratio", base: base.Server.CacheHitRatio, cur: cur.Server.CacheHitRatio, dir: higherBetter},
		// The server quantiles are lifetime quantiles of the server's
		// request-latency histogram, interpolated inside factor-of-two
		// buckets (older baselines hold exact quantiles over the last 2048
		// requests), so they are reported but never gated.
		{name: "server_p50_ms", base: base.Server.LatencyP50Millis, cur: cur.Server.LatencyP50Millis, dir: infoOnly},
		{name: "server_p99_ms", base: base.Server.LatencyP99Millis, cur: cur.Server.LatencyP99Millis, dir: infoOnly},
	}

	// server_requests_total must equal the requests the loadgen sent — the
	// self-scrape off-by-one regression (the server once counted the
	// loadgen's own /metricsz pull, reporting 401 for 400 sent). Only gate
	// when the BASELINE is internally consistent: a pre-fix baseline
	// artifact carries the off-by-one itself and would fail every post-fix
	// run, so it gets an informational row instead.
	dir := infoOnly
	if base.Requests > 0 && base.Server.RequestsTotal == uint64(base.Requests) {
		dir = exactCount
	}
	rows = append(rows, compared{
		name: "server_requests_total",
		base: float64(base.Server.RequestsTotal), cur: float64(cur.Server.RequestsTotal), dir: dir,
	})

	// Cluster weak-scaling rows: per-shard-count throughput and speedup are
	// gated, and a shard count present in the baseline table must exist in
	// the current one (missing-row fail) — a regenerated artifact cannot
	// silently drop the cluster table or a row of it.
	curPoints := map[int]*shardPoint{}
	for i := range cur.ShardScaling {
		pt := &cur.ShardScaling[i]
		curPoints[pt.Shards] = pt
	}
	for _, pt := range base.ShardScaling {
		sc, ok := curPoints[pt.Shards]
		if sc == nil {
			sc = &shardPoint{}
		}
		prefix := fmt.Sprintf("cluster/shards=%d_", pt.Shards)
		rows = append(rows,
			compared{name: prefix + "requests_per_sec", base: pt.RequestsPerSec, cur: sc.RequestsPerSec, dir: higherBetter, missing: !ok},
			compared{name: prefix + "speedup", base: pt.Speedup, cur: sc.Speedup, dir: higherBetter, missing: !ok},
			compared{name: prefix + "errors", base: float64(pt.Errors), cur: float64(sc.Errors), dir: exactCount, missing: !ok},
			compared{name: prefix + "wall_clock_seconds", base: pt.WallClockSeconds, cur: sc.WallClockSeconds, dir: infoOnly, missing: !ok},
		)
		// Router-overhead attribution: the magnitude jitters at sub-
		// millisecond scale so it is informational, but a baseline that HAS
		// the attribution (stitched samples behind it) must keep producing
		// it — tracing propagation silently breaking would zero the sample
		// count, which fails here as MISSING.
		if pt.OverheadSamples > 0 {
			rows = append(rows,
				compared{name: prefix + "router_overhead_ms", base: pt.RouterOverheadMillis, cur: sc.RouterOverheadMillis, dir: infoOnly, missing: !ok},
				compared{name: prefix + "overhead_samples", base: float64(pt.OverheadSamples), cur: float64(sc.OverheadSamples),
					dir: infoOnly, missing: !ok || sc.OverheadSamples == 0, note: "presence-gated"},
			)
		}
	}
	return rows
}

// runCompare is the -compare entry point; the returned code is the process
// exit status (0 pass, 1 regression, 2 unusable input).
func runCompare(cfg *benchConfig, stdout, stderr io.Writer) int {
	baseKind, baseSweep, baseServe, err := loadArtifact(cfg.compare)
	if err != nil {
		fmt.Fprintln(stderr, "snailsbench: compare:", err)
		return 2
	}
	against := cfg.against
	if against == "" {
		against = defaultArtifact[baseKind]
	}
	curKind, curSweep, curServe, err := loadArtifact(against)
	if err != nil {
		fmt.Fprintln(stderr, "snailsbench: compare:", err)
		return 2
	}
	if curKind != baseKind {
		fmt.Fprintf(stderr, "snailsbench: compare: %s is a %s artifact but %s is a %s artifact\n",
			cfg.compare, baseKind, against, curKind)
		return 2
	}

	var rows []compared
	if baseKind == kindSweep {
		rows = sweepRows(baseSweep, curSweep)
	} else {
		rows = serveRows(baseServe, curServe)
	}

	fmt.Fprintf(stdout, "comparing %s artifacts: baseline %s vs current %s (tolerance %.0f%%)\n\n",
		baseKind, cfg.compare, against, 100*cfg.tolerance)
	fmt.Fprintf(stdout, "%-28s %14s %14s %9s  %s\n", "metric", "baseline", "current", "delta", "status")
	failures := 0
	for _, row := range rows {
		if row.regressed(cfg.tolerance) {
			failures++
		}
		deltaCol := fmt.Sprintf("%+.1f%%", 100*row.delta())
		if row.missing {
			deltaCol = "-"
		}
		fmt.Fprintf(stdout, "%-28s %14.3f %14.3f %9s  %s\n",
			row.name, row.base, row.cur, deltaCol, row.status(cfg.tolerance))
	}
	fmt.Fprintln(stdout)
	if failures > 0 {
		fmt.Fprintf(stdout, "compare: FAIL — %d of %d metrics regressed past the %.0f%% tolerance\n",
			failures, len(rows), 100*cfg.tolerance)
		return 1
	}
	fmt.Fprintf(stdout, "compare: PASS — %d metrics within the %.0f%% tolerance\n", len(rows), 100*cfg.tolerance)
	return 0
}
