package trace

import (
	"crypto/rand"
	"encoding/binary"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snails-bench/snails/internal/obs"
)

// Collector owns the finished-trace ring and the per-stage histograms. One
// Collector serves a whole process (the snailsd server keeps one; the sweep
// engine builds a histogram-only one per sweep).
type Collector struct {
	limit int
	seq   atomic.Uint64
	base  uint64 // random per-collector base mixed into wire trace IDs
	proc  string // process attribution stamped on every started trace

	mu    sync.Mutex
	ring  []*Trace // last limit finished traces, oldest first once full
	next  int
	count int

	stages [NumStages]obs.Histogram
}

// NewCollector builds a collector retaining the last limit finished traces.
// limit <= 0 disables the ring (histograms still accumulate), which is what
// the sweep engine uses: it wants the per-stage time budget, not 12k traces.
func NewCollector(limit int) *Collector {
	c := &Collector{limit: limit}
	if limit > 0 {
		c.ring = make([]*Trace, limit)
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		c.base = binary.LittleEndian.Uint64(b[:])
	}
	return c
}

// SetProcess names the process whose traces this collector holds ("router",
// a shard id). The name is stamped on every subsequently started trace and
// surfaced as the "proc" field in /debugz/traces so stitched cross-process
// trees attribute each span group.
func (c *Collector) SetProcess(name string) {
	if c == nil {
		return
	}
	c.proc = name
}

// newTraceID mints a globally-unique non-zero wire ID for the seq-th trace:
// a splitmix64-style mix of the collector's crypto/rand base and the trace
// sequence number. Within a process IDs are distinct by construction (the
// mix is a bijection of the sequence); across processes the random base
// makes collisions 2^-64-unlikely. The zero ID is reserved as "untraced",
// so the one sequence value that would mix to zero is nudged.
func (c *Collector) newTraceID(seq uint64) uint64 {
	for {
		x := c.base + seq*0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
		seq += 1 << 63 // flip the top bit: remix outside the sequence space
	}
}

// Start begins a new trace for the given endpoint with a freshly minted
// wire ID. Nil-safe: a nil collector returns a nil trace and the whole
// recording path no-ops.
func (c *Collector) Start(endpoint string) *Trace {
	return c.StartRemote(endpoint, 0)
}

// StartRemote begins a trace that adopts a propagated wire ID (an Extract
// result), so shard-side spans stitch under the router's trace. A zero ID
// mints a fresh one, making StartRemote(e, 0) identical to Start(e).
func (c *Collector) StartRemote(endpoint string, traceID uint64) *Trace {
	if c == nil {
		return nil
	}
	id := c.seq.Add(1)
	if traceID == 0 {
		traceID = c.newTraceID(id)
	}
	return &Trace{
		ID:       id,
		TraceID:  traceID,
		Process:  c.proc,
		Endpoint: endpoint,
		Begin:    time.Now(),
	}
}

// Finish seals a trace: records its total latency, folds the published spans
// into the per-stage histograms, and appends it to the ring. Spans published
// by straggler goroutines after Finish (a pool job that outlives an
// abandoned waiter) still appear in /debugz/traces but are not folded into histograms.
func (c *Collector) Finish(t *Trace) {
	if c == nil || t == nil {
		return
	}
	t.Total = time.Since(t.Begin)
	for _, sp := range t.Spans() {
		c.stages[sp.Stage].Observe(sp.Dur)
	}
	if c.limit <= 0 {
		return
	}
	c.mu.Lock()
	c.ring[c.next] = t
	c.next = (c.next + 1) % c.limit
	if c.count < c.limit {
		c.count++
	}
	c.mu.Unlock()
}

// SpanView is the JSON rendering of one span.
type SpanView struct {
	Stage        string  `json:"stage"`
	Tag          string  `json:"tag,omitempty"`
	OffsetMillis float64 `json:"offset_ms"`
	DurMillis    float64 `json:"dur_ms"`
}

// View is the JSON rendering of one finished trace, served by
// /debugz/traces. TraceID is the wire identity shared across processes;
// Proc attributes the span group to the process that recorded it, so a
// stitched response groups router-side and shard-side Views under one
// trace_id. (Span offsets are relative to each process's own trace begin —
// there is no cross-process clock alignment.)
type View struct {
	ID         uint64     `json:"id"`
	TraceID    string     `json:"trace_id,omitempty"`
	Proc       string     `json:"proc,omitempty"`
	Endpoint   string     `json:"endpoint"`
	DB         string     `json:"db,omitempty"`
	Variant    string     `json:"variant,omitempty"`
	QuestionID int        `json:"question_id,omitempty"`
	TotalMs    float64    `json:"total_ms"`
	Spans      []SpanView `json:"spans"`
}

// viewOf renders one finished trace.
func viewOf(t *Trace) View {
	spans := t.Spans()
	sv := make([]SpanView, len(spans))
	for j, sp := range spans {
		sv[j] = SpanView{
			Stage:        sp.Stage.String(),
			Tag:          sp.Tag,
			OffsetMillis: round3(float64(sp.Start) / float64(time.Millisecond)),
			DurMillis:    round3(float64(sp.Dur) / float64(time.Millisecond)),
		}
	}
	tid := ""
	if t.TraceID != 0 {
		tid = FormatID(t.TraceID)
	}
	return View{
		ID:         t.ID,
		TraceID:    tid,
		Proc:       t.Process,
		Endpoint:   t.Endpoint,
		DB:         t.DB,
		Variant:    t.Variant,
		QuestionID: t.QuestionID,
		TotalMs:    round3(float64(t.Total) / float64(time.Millisecond)),
		Spans:      sv,
	}
}

// Find returns the buffered traces carrying the given wire ID, oldest
// first. Within one process a wire ID normally maps to a single trace, but
// the ring may hold several when an upstream re-sends the same header.
func (c *Collector) Find(traceID uint64) []View {
	if c == nil || c.limit <= 0 || traceID == 0 {
		return nil
	}
	c.mu.Lock()
	var out []View
	start := c.next - c.count
	for i := 0; i < c.count; i++ {
		t := c.ring[((start+i)%c.limit+c.limit)%c.limit]
		if t.TraceID == traceID {
			out = append(out, viewOf(t))
		}
	}
	c.mu.Unlock()
	return out
}

// Snapshot returns up to n finished traces. With slowest=false the order is
// oldest-to-newest (completion order, deterministic for a serial workload);
// with slowest=true traces sort by descending total latency, ties broken by
// ID so the ordering stays stable. n <= 0 returns everything buffered.
func (c *Collector) Snapshot(n int, slowest bool) []View {
	if c == nil {
		return nil
	}
	if c.limit <= 0 {
		return []View{}
	}
	c.mu.Lock()
	traces := make([]*Trace, 0, c.count)
	start := c.next - c.count
	for i := 0; i < c.count; i++ {
		traces = append(traces, c.ring[((start+i)%c.limit+c.limit)%c.limit])
	}
	c.mu.Unlock()

	if slowest {
		sort.SliceStable(traces, func(a, b int) bool {
			if traces[a].Total != traces[b].Total {
				return traces[a].Total > traces[b].Total
			}
			return traces[a].ID < traces[b].ID
		})
	}
	if n > 0 && len(traces) > n {
		if slowest {
			traces = traces[:n] // the n slowest
		} else {
			traces = traces[len(traces)-n:] // the n most recent
		}
	}
	out := make([]View, len(traces))
	for i, t := range traces {
		out[i] = viewOf(t)
	}
	return out
}

// StageSnapshot is one stage's aggregate across every finished trace.
type StageSnapshot struct {
	Stage        string  `json:"stage"`
	Count        uint64  `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MeanMillis   float64 `json:"mean_ms"`
	P50Millis    float64 `json:"p50_ms"`
	P99Millis    float64 `json:"p99_ms"`
	// Buckets are the stage histogram's raw counts (obs.TrimBuckets form:
	// Buckets[i] counts spans in [2^i, 2^(i+1)) µs), so stage rows from
	// several processes merge by summing buckets.
	Buckets []uint64 `json:"buckets,omitempty"`
}

// NewStageSnapshot builds a stage row from histogram buckets and the summed
// span time. The collector's own rows and the cluster's merged rows (summed
// buckets and totals) both come from here, so a merged row is exactly the
// row of the union histogram.
func NewStageSnapshot(stage string, buckets [obs.NumBuckets]uint64, totalSeconds float64) StageSnapshot {
	st := StageSnapshot{
		Stage:        stage,
		Count:        obs.BucketTotal(buckets),
		TotalSeconds: totalSeconds,
		Buckets:      obs.TrimBuckets(buckets),
	}
	if st.Count > 0 {
		st.MeanMillis = round3(1000 * totalSeconds / float64(st.Count))
		st.P50Millis = round3(obs.BucketQuantile(buckets, 0.50))
		st.P99Millis = round3(obs.BucketQuantile(buckets, 0.99))
	}
	return st
}

// StageHistogram returns the collector's latency histogram for one stage so
// the metrics registry can expose it as a Prometheus histogram series.
// Callers must treat it as observe-only; nil collectors return nil.
func (c *Collector) StageHistogram(s Stage) *obs.Histogram {
	if c == nil || s >= NumStages {
		return nil
	}
	return &c.stages[s]
}

// Stages returns the per-stage aggregates in pipeline order, omitting stages
// never observed.
func (c *Collector) Stages() []StageSnapshot {
	if c == nil {
		return nil
	}
	out := make([]StageSnapshot, 0, NumStages)
	for s := Stage(0); s < NumStages; s++ {
		buckets, sum := c.stages[s].Snapshot()
		if st := NewStageSnapshot(s.String(), buckets, sum); st.Count > 0 {
			out = append(out, st)
		}
	}
	return out
}

// round3 trims a millisecond figure to microsecond precision so JSON
// renderings stay readable.
func round3(ms float64) float64 { return math.Round(ms*1000) / 1000 }
