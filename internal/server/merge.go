package server

import "github.com/snails-bench/snails/internal/trace"

// MergeSnapshots folds per-shard /metricsz snapshots into one cluster-wide
// view. Counters sum; derived ratios are recomputed from the summed parts
// (never averaged — a shard that served 10× the traffic should weigh 10×);
// uptime is the oldest shard's (the cluster has been serving at least that
// long). Latency percentiles cannot be reconstructed exactly without the
// raw samples, so they are request-count-weighted means of the shard
// percentiles — a standard approximation that is exact when shards see the
// same latency distribution, which shared-nothing determinism makes the
// common case.
func MergeSnapshots(snaps []MetricsSnapshot) MetricsSnapshot {
	var out MetricsSnapshot
	if len(snaps) == 0 {
		return out
	}
	out.RequestsByPath = map[string]uint64{}
	var p50Weighted, p99Weighted, weight float64
	for _, s := range snaps {
		if s.UptimeSeconds > out.UptimeSeconds {
			out.UptimeSeconds = s.UptimeSeconds
		}
		out.RequestsTotal += s.RequestsTotal
		out.ObservabilityTotal += s.ObservabilityTotal
		for p, n := range s.RequestsByPath {
			out.RequestsByPath[p] += n
		}
		out.ErrorsTotal += s.ErrorsTotal
		out.TimeoutsTotal += s.TimeoutsTotal
		out.Inflight += s.Inflight
		out.CacheHits += s.CacheHits
		out.CacheMisses += s.CacheMisses
		out.CacheCoalesced += s.CacheCoalesced
		out.CacheEntries += s.CacheEntries
		out.CacheEvictions += s.CacheEvictions
		out.Backend.RequestsOK += s.Backend.RequestsOK
		out.Backend.RequestsError += s.Backend.RequestsError
		out.Backend.Retries += s.Backend.Retries
		out.Backend.FenceFailures += s.Backend.FenceFailures
		out.Backend.BackoffSleeps += s.Backend.BackoffSleeps
		out.Backend.BackoffSeconds += s.Backend.BackoffSeconds
		w := float64(s.RequestsTotal)
		p50Weighted += w * s.LatencyP50Millis
		p99Weighted += w * s.LatencyP99Millis
		weight += w
	}
	if out.CacheHits+out.CacheMisses > 0 {
		out.CacheHitRatio = float64(out.CacheHits) / float64(out.CacheHits+out.CacheMisses)
	}
	if weight > 0 {
		out.LatencyP50Millis = p50Weighted / weight
		out.LatencyP99Millis = p99Weighted / weight
	}
	out.Stages = mergeStages(snaps)
	return out
}

// mergeStages folds per-shard stage breakdowns by stage name, preserving
// the pipeline order of first appearance. Counts and totals sum; the mean
// is recomputed; p50/p99 are span-count-weighted means of the shard values.
func mergeStages(snaps []MetricsSnapshot) []trace.StageSnapshot {
	idx := map[string]int{}
	var out []trace.StageSnapshot
	p50w := map[string]float64{}
	p99w := map[string]float64{}
	for _, s := range snaps {
		for _, sg := range s.Stages {
			i, ok := idx[sg.Stage]
			if !ok {
				i = len(out)
				idx[sg.Stage] = i
				out = append(out, trace.StageSnapshot{Stage: sg.Stage})
			}
			out[i].Count += sg.Count
			out[i].TotalSeconds += sg.TotalSeconds
			w := float64(sg.Count)
			p50w[sg.Stage] += w * sg.P50Millis
			p99w[sg.Stage] += w * sg.P99Millis
		}
	}
	for i := range out {
		if out[i].Count > 0 {
			out[i].MeanMillis = round3(1000 * out[i].TotalSeconds / float64(out[i].Count))
			out[i].P50Millis = round3(p50w[out[i].Stage] / float64(out[i].Count))
			out[i].P99Millis = round3(p99w[out[i].Stage] / float64(out[i].Count))
		}
	}
	return out
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}
