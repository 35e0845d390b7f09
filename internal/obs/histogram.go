package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets fixes the log-spaced bucket count: bucket i covers durations in
// [2^i, 2^(i+1)) microseconds, so the histogram spans 1µs up to 2^27µs ≈
// 134s — beyond any request deadline. Sub-microsecond observations land in
// bucket 0.
//
// The type started life in internal/trace as the per-stage latency histogram;
// it was promoted here so every subsystem (server request latency, stage
// spans, sweep cells) shares one histogram implementation and one Prometheus
// exposition.
const NumBuckets = 28

// bucketIndex maps a duration to its log-spaced bucket.
func bucketIndex(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	i := bits.Len64(uint64(us)) - 1
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// bucketLower returns the inclusive lower bound of bucket i in microseconds.
func bucketLower(i int) float64 { return float64(uint64(1) << uint(i)) }

// BucketUpperSeconds returns the exclusive upper bound of bucket i in
// seconds, as rendered in the Prometheus `le` label. The top bucket absorbs
// every larger observation, so its bound is +Inf.
func BucketUpperSeconds(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return bucketLower(i+1) / 1e6
}

// Histogram is a fixed-bucket log-spaced latency histogram safe for
// concurrent observation: one atomic add per observation, no locks, no
// allocation. It is the only store of request and stage latency: the memory
// is constant, a snapshot never copies samples, and snapshots taken in
// several processes merge exactly by summing buckets.
type Histogram struct {
	counts   [NumBuckets]atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// TotalNanos returns the summed observed duration in nanoseconds.
func (h *Histogram) TotalNanos() int64 { return h.sumNanos.Load() }

// Snapshot reads the per-bucket counts and the duration sum once. The bucket
// counts are mutually consistent enough for exposition (each is one atomic
// load); exposition derives _count from their sum so the cumulative series
// always ends exactly at the reported count, even while observations land
// concurrently.
func (h *Histogram) Snapshot() (buckets [NumBuckets]uint64, sumSeconds float64) {
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
	}
	return buckets, float64(h.sumNanos.Load()) / float64(time.Second)
}

// Quantile estimates the q-th quantile (0..1) in milliseconds from the
// histogram's current buckets; see BucketQuantile.
func (h *Histogram) Quantile(q float64) float64 {
	buckets, _ := h.Snapshot()
	return BucketQuantile(buckets, q)
}

// BucketTotal returns the number of observations counted in buckets.
func BucketTotal(buckets [NumBuckets]uint64) uint64 {
	var n uint64
	for _, c := range buckets {
		n += c
	}
	return n
}

// BucketQuantile estimates the q-th quantile (0..1) in milliseconds of the
// observations counted in buckets, by locating the bucket holding the
// target rank and interpolating linearly inside it. Resolution is bounded by
// the bucket width (a factor of two). Every quantile reported from a
// histogram goes through here, whether the buckets are one process's or the
// bucket-wise sum of several (AddBuckets): a merged quantile is then the
// quantile of the union of the observations, not a blend of per-source
// quantiles.
func BucketQuantile(buckets [NumBuckets]uint64, q float64) float64 {
	total := BucketTotal(buckets)
	if total == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := q * float64(total-1)
	var cum float64
	top := 0
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		c := float64(n)
		if rank < cum+c {
			// Interpolate within [lower, 2*lower) by rank position.
			frac := (rank - cum) / c
			return bucketLower(i) * (1 + frac) / 1000 // µs -> ms
		}
		cum += c
		top = i
	}
	// Numerical fallthrough: report the top occupied bucket's upper bound.
	return bucketLower(top) * 2 / 1000
}

// AddBuckets adds src's counts into dst bucket by bucket. src may be shorter
// than NumBuckets: TrimBuckets drops the trailing empty buckets from the
// JSON form that the cluster router merges.
func AddBuckets(dst *[NumBuckets]uint64, src []uint64) {
	for i := 0; i < len(src) && i < NumBuckets; i++ {
		dst[i] += src[i]
	}
}

// TrimBuckets returns buckets up to the last non-empty one (nil when all are
// empty): the compact form JSON documents carry.
func TrimBuckets(buckets [NumBuckets]uint64) []uint64 {
	n := NumBuckets
	for n > 0 && buckets[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return append([]uint64(nil), buckets[:n]...)
}
