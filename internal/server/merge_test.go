package server

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"
	"time"

	"github.com/snails-bench/snails/internal/obs"
	"github.com/snails-bench/snails/internal/trace"
)

// metricsz pulls /metricsz and decodes it the way the cluster router does.
func metricsz(t *testing.T, s *Server) MetricsSnapshot {
	t.Helper()
	rec := do(s, http.MethodGet, "/metricsz", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metricsz = %d: %s", rec.Code, rec.Body.String())
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decode /metricsz: %v", err)
	}
	return snap
}

// buckets builds a bucket array from (index, count) pairs.
func buckets(pairs ...uint64) [obs.NumBuckets]uint64 {
	var b [obs.NumBuckets]uint64
	for i := 0; i+1 < len(pairs); i += 2 {
		b[pairs[i]] = pairs[i+1]
	}
	return b
}

func TestMergeSnapshotsSumsAndRecomputes(t *testing.T) {
	latA, latB := buckets(6, 100), buckets(8, 300)
	decodeA, decodeB, execB := buckets(13, 10), buckets(14, 30), buckets(13, 5)
	a := MetricsSnapshot{
		UptimeSeconds:      10,
		RequestsTotal:      100,
		ObservabilityTotal: 3,
		RequestsByPath:     map[string]uint64{"/v1/infer": 90, "/metricsz": 3},
		ErrorsTotal:        2,
		CacheHits:          60,
		CacheMisses:        40,
		CacheCoalesced:     8,
		CacheEntries:       5,
		LatencyBuckets:     obs.TrimBuckets(latA),
		Stages: []trace.StageSnapshot{
			trace.NewStageSnapshot("decode", decodeA, 0.1),
		},
	}
	b := MetricsSnapshot{
		UptimeSeconds:  25,
		RequestsTotal:  300,
		RequestsByPath: map[string]uint64{"/v1/infer": 280, "/v1/link": 20},
		CacheHits:      30,
		CacheMisses:    70,
		CacheCoalesced: 5,
		CacheEntries:   7,
		LatencyBuckets: obs.TrimBuckets(latB),
		Stages: []trace.StageSnapshot{
			trace.NewStageSnapshot("decode", decodeB, 0.5),
			trace.NewStageSnapshot("exec", execB, 0.05),
		},
	}

	m := MergeSnapshots([]MetricsSnapshot{a, b})

	if m.RequestsTotal != 400 || m.ObservabilityTotal != 3 || m.ErrorsTotal != 2 {
		t.Errorf("counter sums wrong: %+v", m)
	}
	if m.RequestsByPath["/v1/infer"] != 370 || m.RequestsByPath["/v1/link"] != 20 {
		t.Errorf("per-path sums wrong: %v", m.RequestsByPath)
	}
	if m.UptimeSeconds != 25 {
		t.Errorf("uptime = %v, want the oldest shard's 25", m.UptimeSeconds)
	}
	// Ratio recomputed from summed parts (90/200), not averaged (0.45 vs
	// the 0.45 average here is coincidental — use values where they differ).
	if math.Abs(m.CacheHitRatio-0.45) > 1e-9 {
		t.Errorf("cache hit ratio = %v, want 0.45", m.CacheHitRatio)
	}
	if m.CacheEntries != 12 {
		t.Errorf("cache entries = %d, want 12", m.CacheEntries)
	}
	if m.CacheCoalesced != 13 {
		t.Errorf("cache coalesced = %d, want 13", m.CacheCoalesced)
	}
	// Latency buckets sum, and the quantiles are the summed histogram's:
	// p50 is rank 199.5 of 400, 99.5 spans into b's [256µs, 512µs) bucket.
	union := buckets(6, 100, 8, 300)
	if got, want := m.LatencyBuckets, obs.TrimBuckets(union); len(got) != len(want) || got[6] != 100 || got[8] != 300 {
		t.Errorf("latency buckets = %v, want %v", got, want)
	}
	if want := 0.256 * (1 + 99.5/300); math.Abs(m.LatencyP50Millis-want) > 1e-12 {
		t.Errorf("p50 = %v, want %v", m.LatencyP50Millis, want)
	}
	if want := obs.BucketQuantile(union, 0.99); m.LatencyP99Millis != want {
		t.Errorf("p99 = %v, want %v", m.LatencyP99Millis, want)
	}

	if len(m.Stages) != 2 || m.Stages[0].Stage != "decode" || m.Stages[1].Stage != "exec" {
		t.Fatalf("stages not merged in first-appearance order: %+v", m.Stages)
	}
	d := m.Stages[0]
	if d.Count != 40 || math.Abs(d.TotalSeconds-0.6) > 1e-9 {
		t.Errorf("decode stage sums wrong: %+v", d)
	}
	// mean = 600ms/40 = 15ms; p50 = rank 19.5 of 40, 9.5 into b's
	// [16.384ms, 32.768ms) bucket, rounded to the microsecond.
	if want := math.Round(16384*(1+9.5/30)) / 1000; d.P50Millis != want || math.Abs(d.MeanMillis-15.0) > 1e-9 {
		t.Errorf("decode stage derived values wrong: %+v, want p50 %v", d, want)
	}
	if !equalJSON(t, m.Stages[1], b.Stages[1]) {
		t.Errorf("a stage only one shard saw must merge to that shard's row: %+v vs %+v", m.Stages[1], b.Stages[1])
	}
}

// TestMergeSnapshotsSkewedShards merges two shards under a 90/10 skewed
// load with different latency distributions — shard A serves 90% of
// requests around 0.1ms, shard B 10% around 10ms — and asserts the merged
// request and stage quantiles are those of the union histogram. A
// request-weighted mean of the shard percentiles reports p99 ≈ 1.5ms here,
// while a tenth of all requests took 10ms or more.
func TestMergeSnapshotsSkewedShards(t *testing.T) {
	shardA := New(Config{CacheEntries: -1})
	shardB := New(Config{CacheEntries: -1})
	defer shardA.Drain()
	defer shardB.Drain()
	var union, unionDecode obs.Histogram
	observe := func(s *Server, n int, base time.Duration) {
		for i := 0; i < n; i++ {
			d := base + time.Duration(i%21)*base/50 // base .. 1.4·base
			s.metrics.dur.Observe(d)
			union.Observe(d)
			s.traces.StageHistogram(trace.StageDecode).Observe(d / 2)
			unionDecode.Observe(d / 2)
		}
	}
	observe(shardA, 900, 100*time.Microsecond)
	observe(shardB, 100, 10*time.Millisecond)

	m := MergeSnapshots([]MetricsSnapshot{metricsz(t, shardA), metricsz(t, shardB)})

	if want := union.Quantile(0.50); m.LatencyP50Millis != want {
		t.Errorf("merged latency_p50_ms = %v, want the union's %v", m.LatencyP50Millis, want)
	}
	if want := union.Quantile(0.99); m.LatencyP99Millis != want {
		t.Errorf("merged latency_p99_ms = %v, want the union's %v", m.LatencyP99Millis, want)
	}
	if m.LatencyP99Millis < 8 {
		t.Errorf("merged p99 = %vms, but 10%% of requests took about 10ms", m.LatencyP99Millis)
	}
	ub, usum := unionDecode.Snapshot()
	want := trace.NewStageSnapshot(trace.StageDecode.String(), ub, usum)
	if len(m.Stages) != 1 {
		t.Fatalf("merged stages = %+v, want only %s", m.Stages, want.Stage)
	}
	got := m.Stages[0]
	if got.Stage != want.Stage || got.Count != want.Count ||
		got.P50Millis != want.P50Millis || got.P99Millis != want.P99Millis ||
		math.Abs(got.MeanMillis-want.MeanMillis) > 0.001 {
		t.Errorf("merged %s stage = %+v, want the union's %+v", want.Stage, got, want)
	}
}

func TestMergeSnapshotsEmpty(t *testing.T) {
	m := MergeSnapshots(nil)
	if m.RequestsTotal != 0 || m.CacheHitRatio != 0 || m.Stages != nil {
		t.Errorf("empty merge not zero: %+v", m)
	}
}

// A single-snapshot merge is the snapshot itself: a 1-shard cluster's
// /metricsz must read like the shard's own.
func TestMergeSnapshotsIdentity(t *testing.T) {
	s := New(Config{RequestTimeout: 30 * time.Second})
	defer s.Drain()
	for i := 0; i < 3; i++ {
		for _, ep := range []string{"/v1/infer", "/v1/classify"} {
			if rec := do(s, http.MethodPost, ep, validBody(ep), nil); rec.Code != http.StatusOK {
				t.Fatalf("%s = %d: %s", ep, rec.Code, rec.Body.String())
			}
		}
	}
	a := metricsz(t, s)
	if a.CacheHits == 0 || len(a.LatencyBuckets) == 0 || len(a.Stages) == 0 {
		t.Fatalf("shard view lacks traffic: %+v", a)
	}
	if m := MergeSnapshots([]MetricsSnapshot{a}); !equalJSON(t, m, a) {
		t.Errorf("single-snapshot merge drifted:\n got %+v\nwant %+v", m, a)
	}
}

// equalJSON reports whether a and b render the same JSON document.
func equalJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ja) == string(jb)
}
