// Package trace provides request-scoped pipeline timing for the serving
// layer and the evaluation sweep. A Trace carries a preallocated slab of
// stage spans and travels with a request through context.Context; each
// pipeline layer (server, workflow, sqlexec, evalx call sites) records the
// stages it owns. Finished traces land in a bounded in-memory Collector that
// serves /debugz/traces and folds per-stage durations into fixed log-spaced
// latency histograms for /metricsz.
//
// The hot path is allocation-light by construction: starting a trace is one
// allocation (the span slab is part of the Trace), recording a span is one
// atomic slot claim plus one atomic publish, and every recording entry point
// is a no-op on a nil *Trace, so untraced requests pay only a pointer check.
package trace

import (
	"context"
	"sync/atomic"
	"time"
)

// Stage identifies one timed pipeline stage. The set mirrors the serving
// pipeline: worker-pool wait, schema-prompt rendering, synthetic-LLM decode,
// SQL parse + denaturalization, query execution, and execution-match
// comparison.
type Stage uint8

const (
	StageQueue  Stage = iota // worker-pool wait between submit and pickup
	StagePrompt              // schema-knowledge prompt rendering
	StageDecode              // model inference (synthetic LLM decode)
	StageParse               // prediction parse + denaturalization
	StageExec                // gold/predicted query execution
	StageMatch               // execution-result match comparison

	// Cluster and backend stages are appended after the original pipeline
	// six so existing stage indices (and every [NumStages] array) stay
	// stable across artifacts.
	StageRoute          // router: consistent-hash ring lookup
	StageRelay          // router: one relay attempt against a shard
	StageFailover       // router: wait for a shard to come back before retrying
	StageBackendAttempt // backend: one model inference attempt (HTTP or synthetic)

	NumStages // sentinel: number of stages
)

// String names the stage as it appears in /debugz/traces and /metricsz.
func (s Stage) String() string {
	switch s {
	case StageQueue:
		return "queue"
	case StagePrompt:
		return "prompt_render"
	case StageDecode:
		return "llm_decode"
	case StageParse:
		return "sql_parse"
	case StageExec:
		return "sql_exec"
	case StageMatch:
		return "match"
	case StageRoute:
		return "route"
	case StageRelay:
		return "relay_attempt"
	case StageFailover:
		return "failover_wait"
	case StageBackendAttempt:
		return "backend_attempt"
	}
	return "unknown"
}

// maxSpans bounds the span slab. The deepest pipeline (/v1/infer) records at
// most seven spans; extra slots absorb future stages. Spans past the slab are
// dropped rather than grown: tracing must never allocate mid-request.
const maxSpans = 16

// slabSpan is one slot of the span slab. The stage field doubles as the
// publication flag: it holds Stage+1 and is stored (atomically) only after
// the plain start/duration/tag fields are written, so a reader that observes
// a non-zero stage is guaranteed to see the complete span. Slot claims and
// publishes are the only synchronization on the recording path.
type slabSpan struct {
	stage      atomic.Uint32 // Stage+1; 0 = unpublished
	startNanos int64         // offset from Trace.Begin
	durNanos   int64
	tag        string // free-form qualifier (shard#attempt, attempt index)
}

// Span is one published stage timing, read back out of a finished trace.
type Span struct {
	Stage Stage
	Start time.Duration // offset from the trace's begin time
	Dur   time.Duration
	Tag   string // optional qualifier (e.g. "shard-1#2" on a relay attempt)
}

// droppedSpans tallies spans lost to full slabs, process-wide. Exposed as
// snails_trace_spans_dropped_total so silent span loss is visible.
var droppedSpans atomic.Uint64

// SpansDropped reports how many spans this process has dropped because a
// trace's slab was full.
func SpansDropped() uint64 { return droppedSpans.Load() }

// Trace is the timing record of one request (or one sweep cell). The
// addressing fields (Endpoint, DB, Variant, QuestionID) are written by the
// owning handler before any concurrent span recording starts; spans may be
// appended from other goroutines (pool workers) via the atomic slab.
type Trace struct {
	ID uint64 // per-process sequence number (stable ordering key)
	// TraceID is the globally-unique wire identity. It is propagated across
	// processes in the X-Snails-Trace header: the router mints it, shards
	// adopt it, and /debugz/traces stitches on it.
	TraceID uint64
	// Process names the process that recorded this trace's spans ("router",
	// a shard id, or "server" for a solo daemon).
	Process    string
	Endpoint   string
	DB         string
	Variant    string
	QuestionID int
	Begin      time.Time
	Total      time.Duration // set by Collector.Finish

	n     atomic.Int32
	spans [maxSpans]slabSpan
}

// Now returns the current time when the trace is active and the zero time on
// a nil trace. Call sites use the zero start to skip both the span and the
// closing clock read, so disabled tracing costs one nil check per stage.
func (t *Trace) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Span records a completed stage that started at start (a Now result).
func (t *Trace) Span(s Stage, start time.Time) {
	if t == nil || start.IsZero() {
		return
	}
	t.record(s, start, time.Since(start), "")
}

// SpanTag records a completed stage with a qualifier tag — the relay
// attempt's shard and retry index, a backend attempt number.
func (t *Trace) SpanTag(s Stage, start time.Time, tag string) {
	if t == nil || start.IsZero() {
		return
	}
	t.record(s, start, time.Since(start), tag)
}

// SpanDur records a stage with an explicit duration, for timings measured
// apart from the span's start (one measurement recorded on several traces).
func (t *Trace) SpanDur(s Stage, start time.Time, d time.Duration) {
	if t == nil || start.IsZero() {
		return
	}
	t.record(s, start, d, "")
}

func (t *Trace) record(s Stage, start time.Time, d time.Duration, tag string) {
	i := int(t.n.Add(1)) - 1
	if i >= maxSpans {
		droppedSpans.Add(1) // slab full: drop rather than allocate, but count
		return
	}
	sp := &t.spans[i]
	sp.startNanos = int64(start.Sub(t.Begin))
	sp.durNanos = int64(d)
	sp.tag = tag
	sp.stage.Store(uint32(s) + 1) // publish
}

// SetRequest fills the addressing fields shown in /debugz/traces. It must be
// called by the goroutine that owns the request, before the trace is handed
// to concurrent recorders.
func (t *Trace) SetRequest(db, variant string, questionID int) {
	if t == nil {
		return
	}
	t.DB, t.Variant, t.QuestionID = db, variant, questionID
}

// Spans returns the published spans in recording order. Unpublished slots
// (claimed but not yet stored by a concurrent recorder) are skipped.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	n := int(t.n.Load())
	if n > maxSpans {
		n = maxSpans
	}
	out := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		st := t.spans[i].stage.Load()
		if st == 0 {
			continue
		}
		out = append(out, Span{
			Stage: Stage(st - 1),
			Start: time.Duration(t.spans[i].startNanos),
			Dur:   time.Duration(t.spans[i].durNanos),
			Tag:   t.spans[i].tag,
		})
	}
	return out
}

// ctxKey is the private context key for trace propagation.
type ctxKey struct{}

// NewContext returns ctx carrying the trace.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil when the request is
// untraced. All Trace methods are nil-safe, so callers use the result
// unconditionally.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
