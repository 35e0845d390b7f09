package server

import (
	"math"
	"testing"

	"github.com/snails-bench/snails/internal/trace"
)

func TestMergeSnapshotsSumsAndRecomputes(t *testing.T) {
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
		LatencyP50Millis:   2,
		LatencyP99Millis:   8,
		Stages: []trace.StageSnapshot{
			{Stage: "decode", Count: 10, TotalSeconds: 0.1, P50Millis: 10, P99Millis: 12},
		},
	}
	b := MetricsSnapshot{
		UptimeSeconds:    25,
		RequestsTotal:    300,
		RequestsByPath:   map[string]uint64{"/v1/infer": 280, "/v1/link": 20},
		CacheHits:        30,
		CacheMisses:      70,
		CacheCoalesced:   5,
		CacheEntries:     7,
		LatencyP50Millis: 4,
		LatencyP99Millis: 16,
		Stages: []trace.StageSnapshot{
			{Stage: "decode", Count: 30, TotalSeconds: 0.5, P50Millis: 20, P99Millis: 24},
			{Stage: "exec", Count: 5, TotalSeconds: 0.05, P50Millis: 9, P99Millis: 11},
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
	// Percentiles are request-count-weighted: p50 = (100·2 + 300·4)/400.
	if math.Abs(m.LatencyP50Millis-3.5) > 1e-9 {
		t.Errorf("p50 = %v, want 3.5", m.LatencyP50Millis)
	}
	if math.Abs(m.LatencyP99Millis-14.0) > 1e-9 {
		t.Errorf("p99 = %v, want 14", m.LatencyP99Millis)
	}

	if len(m.Stages) != 2 || m.Stages[0].Stage != "decode" || m.Stages[1].Stage != "exec" {
		t.Fatalf("stages not merged in first-appearance order: %+v", m.Stages)
	}
	d := m.Stages[0]
	if d.Count != 40 || math.Abs(d.TotalSeconds-0.6) > 1e-9 {
		t.Errorf("decode stage sums wrong: %+v", d)
	}
	// Weighted p50 = (10·10 + 30·20)/40 = 17.5; mean = 600ms/40 = 15ms.
	if math.Abs(d.P50Millis-17.5) > 1e-9 || math.Abs(d.MeanMillis-15.0) > 1e-9 {
		t.Errorf("decode stage derived values wrong: %+v", d)
	}
}

func TestMergeSnapshotsEmpty(t *testing.T) {
	m := MergeSnapshots(nil)
	if m.RequestsTotal != 0 || m.CacheHitRatio != 0 || m.Stages != nil {
		t.Errorf("empty merge not zero: %+v", m)
	}
}

// A single-snapshot merge is the snapshot itself (modulo the rebuilt map):
// a 1-shard cluster's /metricsz must read like the shard's own.
func TestMergeSnapshotsIdentity(t *testing.T) {
	a := MetricsSnapshot{
		RequestsTotal:    42,
		RequestsByPath:   map[string]uint64{"/v1/infer": 42},
		CacheHits:        3,
		CacheMisses:      1,
		LatencyP50Millis: 1.5,
		LatencyP99Millis: 7.25,
	}
	m := MergeSnapshots([]MetricsSnapshot{a})
	if m.RequestsTotal != a.RequestsTotal ||
		m.RequestsByPath["/v1/infer"] != 42 ||
		math.Abs(m.CacheHitRatio-0.75) > 1e-9 ||
		m.LatencyP50Millis != a.LatencyP50Millis ||
		m.LatencyP99Millis != a.LatencyP99Millis {
		t.Errorf("single-snapshot merge drifted: %+v", m)
	}
}
