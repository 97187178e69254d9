package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rma"
	"rma/internal/workload"
)

// engine-htap: the paper's insert-versus-scan trade-off on rma.Sharded
// called directly. 5·2^20 keys (80 MiB of pairs) keep the working set
// far beyond the caches. One writer slides a window — insert key N+i,
// delete key i — so the size never changes and the run is stationary;
// one reader cycles Find, GetBatch(16) and a ScanRange of htapScanKeys
// keys from a random live key.
//
// Keys come in runs of 2^htapRunBits consecutive keys at uniformly
// spread positions (keySeq), so the writer appends a run in key order at
// one place while it deletes the oldest run, in key order, at another.
// Each appended run overfills the segments around it and each deleted
// run empties some, so the PMA keeps rebalancing windows of several
// pages — rewired and adaptive — at a constant size. With uniformly
// spread single keys, each segment saw about 60 inserts and 60 deletes
// in 10 s, a random walk of about ±11 from its bulk-loaded fill, and no
// rebalance ever ran.
//
// The size puts each shard's 5·2^17 keys at 0.625 of a power-of-two
// capacity, midway between the bulk loader's sizing steps. At 2^23 or
// 3·2^21 keys a shard sat exactly on a step, so whether it doubled
// depended on the seed and bytes_per_key read 50 to 93 B across seeds.
const (
	htapKeys     = 5 << 20
	htapRunBits  = 10
	htapBatch    = 16
	htapScanKeys = 1000
	// htapSampleEvery: one writer step or reader cycle in this many is
	// traced as a span tree; every call is still timed.
	htapSampleEvery = 64
	// htapFootprintEvery: the writer samples the footprint every this
	// many steps, to show the run stays stationary.
	htapFootprintEvery = 1 << 17
)

type htap struct {
	db  *rma.Sharded
	seq keySeq
	res *result

	step uint64 // writer-owned: steps done
	// Writer progress as key indices: keys [delAcked, insAcked) are
	// live; the bracket between the started and acked counters is in
	// flight.
	insStarted, insAcked, delStarted, delAcked atomic.Uint64
}

// checkIndex reports whether a read that found (or missed) key index x
// is legal, given the writer progress loaded before the read.
func (h *htap) checkIndex(x uint64, found bool, insAckedBefore, delAckedBefore uint64) bool {
	mustAbsent := x >= h.insStarted.Load() || x < delAckedBefore
	mustPresent := x < insAckedBefore && x >= h.delStarted.Load()
	return !(found && mustAbsent) && !(!found && mustPresent)
}

// htapPass holds one measured pass's recordings.
type htapPass struct {
	end           int64
	writes, reads int64
	ops           *winCount
	write, find   *winRec // end-to-end: every Insert/Delete, every Find
	insert, del   Rec     // traced only
	getbatchNS    int64
	getbatchKeys  int64
	scanNS        int64
	scanKeys      int64
	scanKeysWin   *winCount
	scanNSWin     *winCount
	footprints    []int64 // writer: FootprintBytes every htapFootprintEvery steps
	failLog
}

func newHTAPPass(start, end int64) *htapPass {
	return &htapPass{end: end, ops: newWinCount(start), write: newWinRec(start), find: newWinRec(start),
		scanKeysWin: newWinCount(start), scanNSWin: newWinCount(start)}
}

func runHTAP(cfg config, res *result) error {
	seq := keySeq{offset: mix64(cfg.seed), runBits: htapRunBits}
	keys := make([]int64, htapKeys)
	for i := range keys {
		keys[i] = seq.key(uint64(i))
	}
	slices.Sort(keys)
	vals := make([]int64, htapKeys)
	for i, k := range keys {
		vals[i] = workload.ValueFor(k)
	}
	var db *rma.Sharded
	var setups []float64
	for range setupRounds {
		if db != nil {
			db.Close()
			db = nil
			debug.FreeOSMemory()
		}
		t0 := now()
		var err error
		if db, err = rma.NewSharded(numShards, servingOptions()...); err != nil {
			return err
		}
		if err := loadSorted(db, keys, vals); err != nil {
			return err
		}
		setups = append(setups, float64(now()-t0)/1e9)
	}
	keys, vals = nil, nil
	debug.FreeOSMemory()
	defer func() {
		if db != nil {
			db.Close()
		}
	}()
	if db.Size() != htapKeys {
		return fmt.Errorf("engine-htap: preload holds %d keys, want %d", db.Size(), htapKeys)
	}

	fp0, st0 := db.FootprintBytes(), db.Stats()
	h := &htap{db: db, seq: seq, res: res}
	h.insStarted.Store(htapKeys)
	h.insAcked.Store(htapKeys)
	d := cfg.seconds
	var p *htapPass
	if cfg.trace {
		initLayerMetrics(res)
		untraced := h.pass(cfg.seed, seconds(d/2), nil)
		tr := &Tracer{}
		s0, r0 := snapStore(db), snapRuntime()
		smp := startSampler(db)
		p = h.pass(cfg.seed+1, seconds(d/2), tr)
		smp.finish(res)
		setStoreLayers(res, s0, snapStore(db))
		setRuntimeLayers(res, r0, snapRuntime(), p.writes+p.reads)
		res.set("shard.find_ns_p50", p.find.all.Quantile(0.5), "ns")
		res.set("shard.find_ns_p99", p.find.all.Quantile(0.99), "ns")
		res.set("shard.insert_ns_p50", p.insert.Quantile(0.5), "ns")
		res.set("shard.insert_ns_p99", p.insert.Quantile(0.99), "ns")
		res.set("shard.delete_ns_p50", p.del.Quantile(0.5), "ns")
		res.set("shard.getbatch_ns_per_key", float64(p.getbatchNS)/float64(p.getbatchKeys), "ns")
		res.set("shard.scan_ns_per_key", float64(p.scanNS)/float64(p.scanKeys), "ns")
		res.set("trace.overhead_ratio", 1-p.opsPerSec()/untraced.opsPerSec(), "ratio")
		spans, dropped := tr.Spans()
		setSelfTimes(res, spans, dropped)
	} else {
		p = h.pass(cfg.seed, seconds(d), nil)
		res.set("ops_per_s", p.opsPerSec(), "1/s")
		setLatency(res, "read", p.find, p.end)
		setLatency(res, "write", p.write, p.end)
		res.set("scan_keys_per_s", windowRatio(p.scanKeysWin, p.scanNSWin, p.end)*1e9, "1/s")
		res.set("bytes_per_key", float64(db.FootprintBytes())/float64(db.Size()), "B")
		res.set("setup_s", median(setups), "s")
		st := db.Stats()
		late := p.footprints[len(p.footprints)/2:]
		res.note("footprint %d B after set-up; sampled every %d writer steps, %d to %d B over the second half of the run, %d B after it; %d grows, %d shrinks, %d rebalances, %d page swaps in the run",
			fp0, htapFootprintEvery, slices.Min(late), slices.Max(late), db.FootprintBytes(),
			st.Grows-st0.Grows, st.Shrinks-st0.Shrinks, st.Rebalances-st0.Rebalances, st.PageSwaps-st0.PageSwaps)
	}

	// The window must still hold exactly the keys [delAcked, insAcked).
	if err := db.Flush(); err != nil {
		return err
	}
	lo, hi := h.delAcked.Load(), h.insAcked.Load()
	if n := db.Size(); uint64(n) != hi-lo {
		res.fail(1, "engine-htap: size %d after the run, want %d", n, hi-lo)
	}
	res.attempted++
	var prev int64 = math.MinInt64
	first, bad := true, 0
	db.Scan(func(k, v int64) bool {
		if x := seq.index(k); x < lo || x >= hi || v != workload.ValueFor(k) || (!first && k <= prev) {
			bad++
		}
		prev, first = k, false
		return true
	})
	if bad > 0 {
		res.fail(1, "engine-htap: final scan saw %d pairs out of order or outside the window [%d,%d)", bad, lo, hi)
	}
	if !cfg.trace {
		k, v := dump(db)
		db.Close() // a restart starts without the old store
		db, h.db = nil, nil
		secs, bad, err := restoreFromDump(k, v)
		if err != nil {
			return err
		}
		res.attempted++
		if bad > 0 {
			res.fail(1, "engine-htap: restored store differs from its dump in %d pairs", bad)
		}
		res.set("recover_s", secs, "s")
	}
	return nil
}

func (p *htapPass) opsPerSec() float64 { return p.ops.Rate(p.end) }

// pass runs the writer and the reader concurrently for d.
func (h *htap) pass(seed uint64, d time.Duration, tr *Tracer) *htapPass {
	start := now()
	end := start + d.Nanoseconds()
	wp, rp := newHTAPPass(start, end), newHTAPPass(start, end)
	wbuf, rbuf := tr.Buf(), tr.Buf()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); h.writer(wbuf, wp, tr != nil) }()
	go func() { defer wg.Done(); h.reader(seed, rbuf, rp) }()
	wg.Wait()
	wp.reads = rp.reads
	wp.ops.Merge(rp.ops)
	wp.find = rp.find
	wp.getbatchNS, wp.getbatchKeys = rp.getbatchNS, rp.getbatchKeys
	wp.scanNS, wp.scanKeys = rp.scanNS, rp.scanKeys
	wp.scanKeysWin, wp.scanNSWin = rp.scanKeysWin, rp.scanNSWin
	h.res.attempted += wp.writes + wp.reads
	h.res.merge(&wp.failLog)
	h.res.merge(&rp.failLog)
	return wp
}

func (h *htap) writer(buf *SpanBuf, p *htapPass, traced bool) {
	for now() < p.end {
		i := h.step
		h.step++
		kIns, kDel := h.seq.key(htapKeys+i), h.seq.key(i)
		h.insStarted.Store(htapKeys + i + 1)
		t0 := now()
		err := h.db.Insert(kIns, workload.ValueFor(kIns))
		t1 := now()
		h.insAcked.Store(htapKeys + i + 1)
		if err != nil {
			p.fail(1, "engine-htap: Insert(%d): %v", kIns, err)
		}
		h.delStarted.Store(i + 1)
		t2 := now()
		ok, err := h.db.Delete(kDel)
		t3 := now()
		h.delAcked.Store(i + 1)
		if err != nil || !ok {
			p.fail(1, "engine-htap: Delete(%d) = %v, %v", kDel, ok, err)
		}
		p.writes += 2
		p.ops.Add(t3, 2)
		if i%htapFootprintEvery == 0 {
			p.footprints = append(p.footprints, h.db.FootprintBytes())
		}
		p.write.Record(t1, t1-t0)
		p.write.Record(t3, t3-t2)
		if traced {
			p.insert.Record(t1 - t0)
			p.del.Record(t3 - t2)
			if i%htapSampleEvery == 0 {
				root := buf.Add(spanWriteStep, 0, t0, t3)
				buf.Add(spanShardInsert, root, t0, t1)
				buf.Add(spanShardDelete, root, t2, t3)
			}
		}
	}
}

func (h *htap) reader(seed uint64, buf *SpanBuf, p *htapPass) {
	rng := workload.NewRNG(seed ^ 0x7265616465720000)
	batch := make([]int64, htapBatch)
	idx := make([]uint64, htapBatch)
	out := make([]rma.Lookup, 0, htapBatch)
	var scanned []int64
	for cycle := 0; now() < p.end; cycle++ {
		var root int64
		var c0 int64
		if buf != nil && cycle%htapSampleEvery == 0 {
			c0 = now()
			root = buf.Begin(spanReadCycle, 0, c0)
		}

		insB, delB := h.insAcked.Load(), h.delAcked.Load()
		x := delB + rng.Uint64n(insB-delB)
		k := h.seq.key(x)
		t0 := now()
		v, ok := h.db.Find(k)
		t1 := now()
		p.find.Record(t1, t1-t0)
		if !h.checkIndex(x, ok, insB, delB) || (ok && v != workload.ValueFor(k)) {
			p.fail(1, "engine-htap: Find(%d) = %d, %v at index %d", k, v, ok, x)
		}
		if root != 0 {
			buf.Add(spanShardFind, root, t0, t1)
		}

		insB, delB = h.insAcked.Load(), h.delAcked.Load()
		for j := range batch {
			idx[j] = delB + rng.Uint64n(insB-delB)
			batch[j] = h.seq.key(idx[j])
		}
		t0 = now()
		out = h.db.GetBatch(batch, out[:0])
		t1 = now()
		p.getbatchNS += t1 - t0
		p.getbatchKeys += htapBatch
		for j, l := range out {
			if !h.checkIndex(idx[j], l.OK, insB, delB) || (l.OK && l.Val != workload.ValueFor(batch[j])) {
				p.fail(1, "engine-htap: GetBatch key %d = %d, %v at index %d", batch[j], l.Val, l.OK, idx[j])
			}
		}
		if root != 0 {
			buf.Add(spanShardGetBatch, root, t0, t1)
		}

		insB, delB = h.insAcked.Load(), h.delAcked.Load()
		lo := h.seq.key(delB + rng.Uint64n(insB-delB))
		scanned = scanned[:0]
		bad := false
		t0 = now()
		h.db.ScanRange(lo, math.MaxInt64, func(k, v int64) bool {
			if k < lo || v != workload.ValueFor(k) || (len(scanned) > 0 && k <= scanned[len(scanned)-1]) {
				bad = true
			}
			scanned = append(scanned, k)
			return len(scanned) < htapScanKeys
		})
		t1 = now()
		p.scanNS += t1 - t0
		p.scanKeys += int64(len(scanned))
		p.scanNSWin.Add(t1, t1-t0)
		p.scanKeysWin.Add(t1, int64(len(scanned)))
		insA := h.insStarted.Load()
		for _, k := range scanned {
			if x := h.seq.index(k); x >= insA || x < delB {
				bad = true
			}
		}
		if bad {
			p.fail(1, "engine-htap: ScanRange(%d, ...) returned keys out of order, bounds or window", lo)
		}
		if root != 0 {
			buf.Add(spanShardScan, root, t0, t1)
			buf.End(root, now())
		}
		p.reads += 3
		p.ops.Add(t1, 3)
	}
}
