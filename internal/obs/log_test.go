package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn,
		"error": slog.LevelError, "INFO": slog.LevelInfo, "": slog.LevelInfo,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) should error")
	}
}

func TestNewLoggerRejectsBadFormat(t *testing.T) {
	if _, err := NewLogger(&strings.Builder{}, "yaml", "info"); err == nil {
		t.Error("format yaml should be rejected")
	}
	if _, err := NewLogger(&strings.Builder{}, "json", "loud"); err == nil {
		t.Error("level loud should be rejected")
	}
}

// TestLoggerContextAttrs asserts request-scoped context attributes reach the
// emitted record in both formats, and that level filtering works.
func TestLoggerContextAttrs(t *testing.T) {
	var sb strings.Builder
	log, err := NewLogger(&sb, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextAttrs(context.Background(),
		slog.Uint64("request_id", 42), slog.String("db", "CWO"))
	ctx = ContextAttrs(ctx, slog.String("variant", "least"))

	log.DebugContext(ctx, "hidden")
	log.InfoContext(ctx, "served", slog.Int("status", 200))

	line := strings.TrimSpace(sb.String())
	if strings.Contains(line, "hidden") {
		t.Fatal("debug record passed an info-level logger")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("log line is not JSON: %q: %v", line, err)
	}
	if rec["msg"] != "served" || rec["status"] != float64(200) {
		t.Errorf("record lost its own attrs: %v", rec)
	}
	if rec["request_id"] != float64(42) || rec["db"] != "CWO" || rec["variant"] != "least" {
		t.Errorf("record lost context attrs: %v", rec)
	}

	sb.Reset()
	text, err := NewLogger(&sb, "text", "debug")
	if err != nil {
		t.Fatal(err)
	}
	text.DebugContext(ctx, "visible")
	if out := sb.String(); !strings.Contains(out, "request_id=42") || !strings.Contains(out, "db=CWO") {
		t.Errorf("text format lost context attrs: %q", out)
	}
}

// Histogram tests promoted from internal/trace alongside the type itself.

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 1},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 9},  // 1000µs -> 2^9=512..1024
		{time.Second, 19},      // 1e6µs -> 2^19=524288..2^20
		{10 * time.Minute, 27}, // clamped to the top bucket
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	if !strings.Contains(formatFloat(BucketUpperSeconds(NumBuckets-1)), "Inf") {
		t.Error("top bucket upper bound must render as +Inf")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// 100 observations spread over two well-separated buckets.
	for i := 0; i < 90; i++ {
		h.Observe(3 * time.Microsecond) // bucket [2µs,4µs)
	}
	for i := 0; i < 10; i++ {
		h.Observe(3 * time.Millisecond) // bucket [2048µs,4096µs)
	}
	p50 := h.Quantile(0.50)
	if p50 < 0.002 || p50 > 0.004 {
		t.Errorf("p50 = %vms, want within [2µs,4µs)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 2.0 || p99 > 4.096 {
		t.Errorf("p99 = %vms, want within [2.048ms,4.096ms]", p99)
	}
	if h.Quantile(0) > h.Quantile(0.5) || h.Quantile(0.5) > h.Quantile(1) {
		t.Error("quantiles are not monotone")
	}
	if h.Count() != 100 {
		t.Errorf("count = %d, want 100", h.Count())
	}
	wantMean := (90*0.003 + 10*3.0) / 100
	if m := float64(h.TotalNanos()) / float64(h.Count()) / 1e6; m < wantMean*0.99 || m > wantMean*1.01 {
		t.Errorf("mean = %vms, want ≈%vms", m, wantMean)
	}
	buckets, sum := h.Snapshot()
	var n uint64
	for _, b := range buckets {
		n += b
	}
	if n != 100 {
		t.Errorf("snapshot bucket sum = %d, want 100", n)
	}
	wantSum := 90*3e-6 + 10*3e-3
	if sum < wantSum*0.99 || sum > wantSum*1.01 {
		t.Errorf("snapshot sum = %v, want ≈%v", sum, wantSum)
	}
}
