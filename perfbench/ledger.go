package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// layer names one boundary the traced run records spans at, outermost first:
// a request's client span contains its router span (cluster only), which
// contains its server span, which contains the backend calls made for it.
type layer uint8

const (
	layerClient layer = iota
	layerRouter
	layerServer
	layerBackend
	numLayers
)

// span is one timed call into a layer, in nanoseconds since the recorder's
// base. Spans of one request share req; req 0 marks a span no request could
// be matched to, which the ledger ignores.
type span struct {
	req        uint64
	layer      layer
	start, end int64
}

// recorder keeps the traced run's spans in memory. Spans are recorded only
// while on is set, so set-up and warm-up traffic stay out of the ledger.
type recorder struct {
	base  time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// now is the monotonic time since the recorder's base, in nanoseconds. A nil
// recorder (the untraced run) reads 0.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.base))
}

func (r *recorder) add(s span) {
	if r == nil || !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// interval is a [start, end) range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the parent's duration minus the part of it its children cover.
// Children may overlap each other (parallel calls) and may stick out of the
// parent; only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// layerTotals accumulates exclusive time and call counts per layer.
type layerTotals struct {
	self  [numLayers]int64
	calls [numLayers]int
}

// requestSelf adds one request's spans to the totals. Each span's children
// are the spans of the next layer inward that the request has: a server span
// is the child of the router span when the request went through a router,
// else of the client span.
func (t *layerTotals) requestSelf(spans []span) {
	var by [numLayers][]interval
	for _, s := range spans {
		by[s.layer] = append(by[s.layer], interval{s.start, s.end})
	}
	for l := layer(0); l < numLayers; l++ {
		var children []interval
		for inner := l + 1; inner < numLayers; inner++ {
			if len(by[inner]) > 0 {
				children = by[inner]
				break
			}
		}
		for _, p := range by[l] {
			t.self[l] += selfTime(p, children)
			t.calls[l]++
		}
	}
}

// totalsByRequest groups spans by request and sums exclusive time per
// layer. Requests without a client span began outside the recording window
// and are dropped whole, as are spans no request was matched to.
func totalsByRequest(spans []span) layerTotals {
	byReq := map[uint64][]span{}
	hasClient := map[uint64]bool{}
	for _, s := range spans {
		if s.req == 0 {
			continue
		}
		byReq[s.req] = append(byReq[s.req], s)
		if s.layer == layerClient {
			hasClient[s.req] = true
		}
	}
	var t layerTotals
	for req, ss := range byReq {
		if hasClient[req] {
			t.requestSelf(ss)
		}
	}
	return t
}

// ledgerRow is one layer's exclusive time in a workload's ledger.
type ledgerRow struct {
	name    string
	totalMS float64
}

// ledger breaks a workload's wall time into exclusive per-layer time plus
// the remainder no measured layer accounts for. By construction the rows
// and the unattributed remainder sum back to wall.
type ledger struct {
	wallMS         float64
	rows           []ledgerRow
	unattributedMS float64
}

func newLedger(wallMS float64, rows []ledgerRow) ledger {
	rest := wallMS
	for _, r := range rows {
		rest -= r.totalMS
	}
	return ledger{wallMS: wallMS, rows: rows, unattributedMS: rest}
}

func (l ledger) unattributedRatio() float64 {
	if l.wallMS == 0 {
		return 0
	}
	return l.unattributedMS / l.wallMS
}

// largest names the row with the most exclusive time.
func (l ledger) largest() ledgerRow {
	var best ledgerRow
	for _, r := range l.rows {
		if r.totalMS > best.totalMS {
			best = r
		}
	}
	return best
}
