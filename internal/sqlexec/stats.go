package sqlexec

import "sync/atomic"

// Package-level execution counters. sqlexec sits below every caller (sweep
// workers, serving requests, CLI one-offs), so a process-wide tally is the
// natural grain; the metrics registry reads these through Stats() at scrape
// time rather than importing a metrics package here.
var (
	queries       atomic.Uint64 // top-level statements executed (incl. failures)
	parseFailures atomic.Uint64 // ExecuteSQL* calls whose SQL did not parse
	execFailures  atomic.Uint64 // parsed statements that failed during execution
	rowsReturned  atomic.Uint64 // result rows produced by successful statements
	viewExecs     atomic.Uint64 // view definitions actually executed
	viewCacheHits atomic.Uint64 // view references served from the per-DB cache
)

// ExecStats is a point-in-time snapshot of the package counters.
type ExecStats struct {
	Queries       uint64
	ParseFailures uint64
	ExecFailures  uint64
	RowsReturned  uint64
	ViewExecs     uint64
	ViewCacheHits uint64
}

// Stats returns the current counter values. The fields are read independently,
// so under concurrent load the snapshot is only approximately consistent —
// fine for monitoring, which is its only consumer.
func Stats() ExecStats {
	return ExecStats{
		Queries:       queries.Load(),
		ParseFailures: parseFailures.Load(),
		ExecFailures:  execFailures.Load(),
		RowsReturned:  rowsReturned.Load(),
		ViewExecs:     viewExecs.Load(),
		ViewCacheHits: viewCacheHits.Load(),
	}
}

// record tallies one top-level execution outcome given the produced row count
// (0 when the execution failed).
func record(rows int, err error) {
	queries.Add(1)
	if err != nil {
		execFailures.Add(1)
		return
	}
	rowsReturned.Add(uint64(rows))
}
