package main

import (
	"runtime/metrics"
	"sync"
	"time"

	"rma"
	"rma/internal/server"
)

// layerNames lists every per-layer metric in report order with its
// unit. A workload that does not cross a layer reports 0 for it.
var layerNames = []struct{ name, unit string }{
	{"server.service_us_p50", "us"}, {"server.service_us_p99", "us"},
	{"server.read_coalesce", "cmds/batch"}, {"server.write_coalesce", "cmds/batch"},
	{"server.reads_per_cmd", "calls/cmd"}, {"server.writes_per_cmd", "calls/cmd"},
	{"resp.encode_ns_per_cmd", "ns"}, {"resp.decode_ns_per_reply", "ns"},
	{"net.wait_us_p50", "us"},
	{"shard.find_ns_p50", "ns"}, {"shard.find_ns_p99", "ns"},
	{"shard.getbatch_ns_per_key", "ns"},
	{"shard.insert_ns_p50", "ns"}, {"shard.insert_ns_p99", "ns"},
	{"shard.delete_ns_p50", "ns"},
	{"shard.applybatch_ns_per_op", "ns"},
	{"shard.scan_ns_per_key", "ns"},
	{"shard.lockfree_ratio", "ratio"}, {"shard.read_retries_per_1k", "count/1k"},
	{"shard.snapshot_breaks", "count"}, {"shard.stats_call_us", "us"},
	{"core.element_copies_per_insert", "count"}, {"core.rebalances_per_1k_writes", "count/1k"},
	{"core.adaptive_ratio", "ratio"}, {"core.resizes", "count"},
	{"vmem.page_swaps_per_rebalance", "count"}, {"vmem.epoch_advances", "count"},
	{"rebal.deferred_per_1k_writes", "count/1k"}, {"rebal.maintenance_runs", "count"},
	{"rebal.pending_windows_max", "count"},
	{"wal.records_per_wave", "count"}, {"wal.syncs_per_1k_writes", "count/1k"},
	{"wal.rotations", "count"}, {"wal.truncations", "count"}, {"wal.failures", "count"},
	{"ckpt.rounds", "count"}, {"ckpt.pages_per_round", "count"},
	{"ckpt.auto", "count"}, {"ckpt.failures", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_us_p99", "us"},
	{"runtime.sched_latency_us_p99", "us"}, {"runtime.alloc_bytes_per_op", "B"},
	{"client.sched_lag_us_p99", "us"},
	{"trace.overhead_ratio", "ratio"}, {"trace.spans", "count"},
}

// selfTimeMetric names the per-layer metric carrying a span name's mean
// self time.
func selfTimeMetric(name int) string { return "self." + spanNames[name] + "_ns" }

// initLayerMetrics reports every per-layer metric as 0 up front, so a
// traced run always prints the full set.
func initLayerMetrics(res *result) {
	for _, l := range layerNames {
		res.set(l.name, 0, l.unit)
	}
	for i := range numSpanNames {
		res.set(selfTimeMetric(i), 0, "ns")
	}
}

// setSelfTimes reports the mean self time of every span name.
func setSelfTimes(res *result, spans []Span, dropped int) {
	st := SelfTimes(spans)
	for i, s := range st {
		if s.Count > 0 {
			res.set(selfTimeMetric(i), float64(s.SelfNS)/float64(s.Count), "ns")
			res.note("span %-16s n=%-7d mean=%.0fns self=%.0fns", spanNames[i], s.Count,
				float64(s.TotalNS)/float64(s.Count), float64(s.SelfNS)/float64(s.Count))
		}
	}
	res.set("trace.spans", float64(len(spans)), "count")
	if dropped > 0 {
		res.note("%d spans dropped past the per-goroutine cap", dropped)
	}
	res.spans = spans
}

// storeSnap is the store's counters at one instant.
type storeSnap struct {
	st     rma.Stats
	rounds uint64
}

func snapStore(db *rma.Sharded) storeSnap {
	rounds, _ := db.LastCheckpoint()
	return storeSnap{st: db.Stats(), rounds: rounds}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setStoreLayers reports the shard, core, vmem, rebal, wal and ckpt
// counters accumulated between two snapshots.
func setStoreLayers(res *result, before, after storeSnap) {
	a, b := before.st, after.st
	writes := b.Inserts - a.Inserts + b.Deletes - a.Deletes
	rebs := b.Rebalances - a.Rebalances
	lf := b.LockFreeReads - a.LockFreeReads
	reads := lf + b.ReadFallbacks - a.ReadFallbacks
	rounds := after.rounds - before.rounds
	count := func(name string, n uint64) { res.set(name, float64(n), "count") }
	res.set("shard.lockfree_ratio", ratio(lf, reads), "ratio")
	res.set("shard.read_retries_per_1k", 1000*ratio(b.ReadRetries-a.ReadRetries, reads), "count/1k")
	count("shard.snapshot_breaks", b.SnapshotBreaks-a.SnapshotBreaks)
	res.set("core.element_copies_per_insert", ratio(b.ElementCopies-a.ElementCopies, b.Inserts-a.Inserts), "count")
	res.set("core.rebalances_per_1k_writes", 1000*ratio(rebs, writes), "count/1k")
	res.set("core.adaptive_ratio", ratio(b.AdaptiveRebalances-a.AdaptiveRebalances, rebs), "ratio")
	count("core.resizes", b.Resizes-a.Resizes)
	res.set("vmem.page_swaps_per_rebalance", ratio(b.PageSwaps-a.PageSwaps, rebs), "count")
	count("vmem.epoch_advances", b.EpochAdvances-a.EpochAdvances)
	res.set("rebal.deferred_per_1k_writes", 1000*ratio(b.DeferredWindows-a.DeferredWindows, writes), "count/1k")
	count("rebal.maintenance_runs", b.MaintenanceRuns-a.MaintenanceRuns)
	res.set("wal.records_per_wave", ratio(b.WALRecords-a.WALRecords, b.WALWaves-a.WALWaves), "count")
	res.set("wal.syncs_per_1k_writes", 1000*ratio(b.WALSyncs-a.WALSyncs, writes), "count/1k")
	count("wal.rotations", b.WALRotations-a.WALRotations)
	count("wal.truncations", b.WALTruncations-a.WALTruncations)
	count("wal.failures", b.WALAppendFailures-a.WALAppendFailures+b.WALSyncFailures-a.WALSyncFailures+
		b.WALRotateFailures-a.WALRotateFailures+b.WALTruncateFailures-a.WALTruncateFailures)
	count("ckpt.rounds", rounds)
	res.set("ckpt.pages_per_round", ratio(b.CheckpointPages-a.CheckpointPages, rounds), "count")
	count("ckpt.auto", b.AutoCheckpoints-a.AutoCheckpoints)
	count("ckpt.failures", b.CheckpointFailures-a.CheckpointFailures)
}

// setServerLayers reports the server counters between two snapshots
// plus the connection wrapper's call counts.
func setServerLayers(res *result, a, b server.Stats, reads, writes uint64) {
	cmds := b.Commands - a.Commands
	res.set("server.read_coalesce", ratio(b.ReadBatched-a.ReadBatched, b.ReadBatches-a.ReadBatches), "cmds/batch")
	res.set("server.write_coalesce", ratio(b.WriteBatched-a.WriteBatched, b.WriteBatches-a.WriteBatches), "cmds/batch")
	res.set("server.reads_per_cmd", ratio(reads, cmds), "calls/cmd")
	res.set("server.writes_per_cmd", ratio(writes, cmds), "calls/cmd")
}

// sampler polls the store at a low cadence during a traced run: the
// deferred-rebalance backlog and the cost of one Stats call.
type sampler struct {
	stop       chan struct{}
	wg         sync.WaitGroup
	pendingMax int
	statsCall  Rec
}

func startSampler(db *rma.Sharded) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.pendingMax = max(s.pendingMax, db.PendingWindows())
				t := now()
				db.Stats()
				s.statsCall.Record(now() - t)
			}
		}
	}()
	return s
}

func (s *sampler) finish(res *result) {
	close(s.stop)
	s.wg.Wait()
	res.set("rebal.pending_windows_max", float64(s.pendingMax), "count")
	res.set("shard.stats_call_us", s.statsCall.Quantile(0.5)/1e3, "us")
}

// runtimeSnap reads the Go runtime's own metrics.
type runtimeSnap struct {
	samples []metrics.Sample
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
	"/gc/heap/allocs:bytes",
}

func snapRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnap{samples: s}
}

// histP99 is the 0.99 quantile of the difference of two cumulative
// runtime histograms, as the upper edge of its bucket, in microseconds.
func histP99(a, b *metrics.Float64Histogram) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(float64(total)*0.99 + 0.5)
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= max(rank, 1) {
			return b.Buckets[i+1] * 1e6
		}
	}
	return 0
}

func setRuntimeLayers(res *result, a, b runtimeSnap, ops int64) {
	if b.samples[0].Value.Kind() == metrics.KindBad {
		return
	}
	res.set("runtime.gc_cycles", float64(b.samples[0].Value.Uint64()-a.samples[0].Value.Uint64()), "count")
	res.set("runtime.gc_pause_us_p99", histP99(a.samples[1].Value.Float64Histogram(), b.samples[1].Value.Float64Histogram()), "us")
	res.set("runtime.sched_latency_us_p99", histP99(a.samples[2].Value.Float64Histogram(), b.samples[2].Value.Float64Histogram()), "us")
	if ops > 0 {
		res.set("runtime.alloc_bytes_per_op", float64(b.samples[3].Value.Uint64()-a.samples[3].Value.Uint64())/float64(ops), "B")
	}
}
