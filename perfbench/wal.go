package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"rma"
	"rma/internal/workload"
)

// wal-upsert: rma.Sharded with WithDurability and WithWAL with fsync
// never: the log is written but never synced. With fsync always every
// metric followed the shared disk under the durability directory
// (ops_per_s spread 29% and write_p99_us 68% over five seeds), so the
// device's fsync cost is not measured here. 2^20 keys are preloaded and
// checkpointed; two writers send 90% upserts (ApplyBatch Delete+Put) and
// 10% Find over scrambled zipf(1.0) keys. The checkpoint interval and
// segment size are small enough that several rounds publish, rotate and
// truncate during a run. After the run the store is closed without a
// checkpoint, reopened through OpenSharded, and every acknowledged
// upsert is verified. WAL append, group commit, checkpoints and replay
// dominate.
const (
	walKeys      = 1 << 20
	walWriters   = 2
	walUpsertPct = 90
	walFsync     = "never"
	// walTailOps is the length of the WAL suffix every recovery replays.
	walTailOps = 1 << 15
	// scan_keys_per_s: each reopened store is swept for walScanSeconds
	// in batches of walScansPerBatch scans, each of the next walScanKeys
	// keys.
	walScanSeconds   = 0.1
	walScansPerBatch = 100
	walScanKeys      = 100
	// walReopens: recover_s is the median of this many reopens.
	walReopens = 9
	// walSampleEvery: one operation in this many is traced as a span
	// tree; every operation is still timed.
	walSampleEvery = 16
)

func walOptions(dir string) []rma.Option {
	return append(servingOptions(), rma.WithDurability(dir), rma.WithWAL(rma.WALConfig{
		Fsync:              walFsync,
		SegmentBytes:       64 << 10,
		CheckpointInterval: time.Second,
	}))
}

type walRun struct {
	db    *rma.Sharded
	dir   string
	model *kvModel
}

// walPass holds one writer's, or a merged pass's, recordings.
type walPass struct {
	end         int64
	ops         *winCount
	attempted   int64
	read, write *winRec
	applyNS     int64
	applyOps    int64
	failLog
}

func newWALPass(start, end int64) *walPass {
	return &walPass{end: end, ops: newWinCount(start), read: newWinRec(start), write: newWinRec(start)}
}

func runWALUpsert(cfg config, res *result) error {
	keys := make([]int64, walKeys)
	vals := make([]int64, walKeys)
	for i := range keys {
		keys[i], vals[i] = int64(i), workload.ValueFor(int64(i))
	}
	var db *rma.Sharded
	var dir string
	var setups []float64
	for r := range setupRounds {
		if db != nil {
			db.Close()
			os.RemoveAll(dir)
			debug.FreeOSMemory()
		}
		dir = filepath.Join(cfg.outDir, fmt.Sprintf("wal-%d", r))
		t0 := now()
		var err error
		if db, err = rma.NewSharded(numShards, walOptions(dir)...); err != nil {
			return err
		}
		if err := loadSorted(db, keys, vals); err != nil {
			return err
		}
		if err := db.Checkpoint(); err != nil {
			return err
		}
		setups = append(setups, float64(now()-t0)/1e9)
	}
	w := &walRun{db: db, dir: dir, model: newKVModel(walKeys)}
	closed := false
	defer func() {
		if !closed {
			db.Close()
		}
	}()

	var p *walPass
	if cfg.trace {
		initLayerMetrics(res)
		untraced := w.pass(cfg, cfg.seconds/2, nil)
		tr := &Tracer{}
		s0, r0 := snapStore(db), snapRuntime()
		smp := startSampler(db)
		p = w.pass(cfg, cfg.seconds/2, tr)
		smp.finish(res)
		setStoreLayers(res, s0, snapStore(db))
		setRuntimeLayers(res, r0, snapRuntime(), p.attempted)
		res.set("shard.find_ns_p50", p.read.all.Quantile(0.5), "ns")
		res.set("shard.find_ns_p99", p.read.all.Quantile(0.99), "ns")
		res.set("shard.applybatch_ns_per_op", float64(p.applyNS)/float64(p.applyOps), "ns")
		res.set("trace.overhead_ratio", 1-p.opsPerSec()/untraced.opsPerSec(), "ratio")
		defer func() {
			spans, dropped := tr.Spans()
			setSelfTimes(res, spans, dropped)
		}()
		w.account(res, untraced)
		w.account(res, p)
		if err := w.tail(cfg, res); err != nil {
			return err
		}
		return w.recoverAndVerify(cfg, res, &closed, tr.Buf())
	}
	p = w.pass(cfg, cfg.seconds, nil)
	w.account(res, p)
	res.set("ops_per_s", p.opsPerSec(), "1/s")
	setLatency(res, "read", p.read, p.end)
	setLatency(res, "write", p.write, p.end)
	res.set("bytes_per_key", float64(db.FootprintBytes())/float64(db.Size()), "B")
	res.set("setup_s", median(setups), "s")
	if err := w.tail(cfg, res); err != nil {
		return err
	}
	return w.recoverAndVerify(cfg, res, &closed, nil)
}

func (w *walRun) account(res *result, p *walPass) {
	res.attempted += p.attempted
	res.merge(&p.failLog)
}

func (p *walPass) opsPerSec() float64 { return p.ops.Rate(p.end) }

// tail publishes a checkpoint round that covers every write so far,
// then upserts walTailOps more keys, so every run's recovery replays a
// WAL suffix of the same length. Left to the scheduler, the suffix would
// be anything from nothing to a whole checkpoint interval of writes.
func (w *walRun) tail(cfg config, res *result) error {
	var target uint64
	deadline := now() + int64(10*time.Second)
	for target == 0 {
		if w.db.RequestCheckpoint() {
			r, _ := w.db.LastCheckpoint()
			target = r + 1
		} else if now() > deadline {
			return fmt.Errorf("wal-upsert: could not start a checkpoint round")
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	for r, _ := w.db.LastCheckpoint(); r < target; r, _ = w.db.LastCheckpoint() {
		if now() > deadline {
			return fmt.Errorf("wal-upsert: checkpoint round %d did not publish", target)
		}
		time.Sleep(time.Millisecond)
	}
	zipf := workload.NewZipf(cfg.seed*31+walWriters, 1.0, walKeys, true)
	ops := make([]rma.BatchOp, 2)
	for range walTailOps {
		key := zipf.Next()
		ver := w.model.issued[key].Add(1)
		ops[0] = rma.BatchOp{Kind: rma.OpDelete, Key: key}
		ops[1] = rma.BatchOp{Kind: rma.OpPut, Key: key, Val: valueAt(key, ver)}
		res.attempted++
		if deleted, err := w.db.ApplyBatch(ops); err != nil || deleted != 1 {
			res.fail(1, "wal-upsert: tail upsert of key %d: deleted %d, %v", key, deleted, err)
			continue
		}
		w.model.acked[key].Store(ver)
	}
	return nil
}

// recoverAndVerify closes the store without a checkpoint, reopens it
// once to warm up and then walReopens times (recover_s is the median),
// sweeps each of those stores with range scans that give
// scan_keys_per_s, and checks with a full scan that the last one holds
// exactly every acknowledged upsert; the sweeps check every pair too.
func (w *walRun) recoverAndVerify(cfg config, res *result, closed *bool, buf *SpanBuf) error {
	if err := w.db.Close(); err != nil {
		return fmt.Errorf("wal-upsert: close: %w", err)
	}
	*closed = true
	var opens, sweeps []float64
	var db *rma.Sharded
	for r := range 1 + walReopens {
		if db != nil {
			if err := db.Close(); err != nil {
				return fmt.Errorf("wal-upsert: close after reopen: %w", err)
			}
		}
		debug.FreeOSMemory()
		t0 := now()
		var err error
		if db, err = rma.OpenSharded(w.dir, walOptions(w.dir)...); err != nil {
			return fmt.Errorf("wal-upsert: reopen: %w", err)
		}
		t1 := now()
		if r > 0 { // the first reopen also pays for growing the heap
			opens = append(opens, float64(t1-t0)/1e9)
			sweeps = append(sweeps, w.sweep(db, res))
		}
		if r == 1 {
			buf.Add(spanOpen, 0, t0, t1)
		}
	}
	defer db.Close()
	if !cfg.trace {
		res.set("recover_s", median(opens), "s")
	}

	res.attempted++
	next, bad := int64(0), int64(0)
	t0 := now()
	db.Scan(func(k, v int64) bool {
		if k != next || v != valueAt(k, w.model.acked[k].Load()) {
			bad++
		}
		next++
		return true
	})
	buf.Add(spanVerifyAll, 0, t0, now())
	if bad > 0 || next != walKeys || db.Size() != walKeys {
		res.fail(1, "wal-upsert: recovered store differs from the acknowledged upserts at %d keys (%d keys, size %d)", bad, next, db.Size())
	}

	if !cfg.trace {
		res.set("scan_keys_per_s", median(sweeps), "1/s")
		res.note("range-scan sweeps of the %d reopened stores: %.4g to %.4g keys/s", len(sweeps), slices.Min(sweeps), slices.Max(sweeps))
	}
	return nil
}

// sweep runs short range scans over the recovered store db for
// walScanSeconds, checking every pair, and returns the median rate over
// its batches in keys per second. The rate of the full scan spread by a
// quarter across five seeds, and one sweep's rate moved by half between
// runs of one seed, so every reopened store is swept and scan_keys_per_s
// is the median over them.
func (w *walRun) sweep(db *rma.Sharded, res *result) float64 {
	var rates []float64
	lo := int64(-walScanKeys)
	for end := now() + int64(walScanSeconds*1e9); now() < end; {
		bad := int64(0)
		t0 := now()
		for range walScansPerBatch {
			// A sweep of consecutive ranges, wrapping at the end.
			if lo += walScanKeys; lo+walScanKeys > walKeys {
				lo = 0
			}
			next := lo
			db.ScanRange(lo, lo+walScanKeys-1, func(k, v int64) bool {
				if k != next || v != valueAt(k, w.model.acked[k].Load()) {
					bad++
				}
				next++
				return true
			})
			if next != lo+walScanKeys {
				bad++
			}
		}
		rates = append(rates, walScansPerBatch*walScanKeys/(float64(now()-t0)/1e9))
		res.attempted += walScansPerBatch
		if bad > 0 {
			res.fail(bad, "wal-upsert: %d wrong or missing pairs in range scans of the recovered store", bad)
		}
	}
	return median(rates)
}

// pass runs the writers for seconds.
func (w *walRun) pass(cfg config, seconds float64, tr *Tracer) *walPass {
	start := now()
	end := start + int64(seconds*1e9)
	parts := make([]*walPass, walWriters)
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = newWALPass(start, end)
		wr := &walWriter{id: i, buf: tr.Buf(),
			rng:  workload.NewRNG(cfg.seed*977 + uint64(i)),
			zipf: workload.NewZipf(cfg.seed*31+uint64(i), 1.0, walKeys, true)}
		wg.Add(1)
		go func() { defer wg.Done(); w.writer(wr, parts[i]) }()
	}
	wg.Wait()
	out := newWALPass(start, end)
	for _, p := range parts {
		out.ops.Merge(p.ops)
		out.attempted += p.attempted

		out.read.Merge(p.read)
		out.write.Merge(p.write)
		out.applyNS += p.applyNS
		out.applyOps += p.applyOps
		out.merge(&p.failLog)
	}
	return out
}

// walWriter is one writer's generator state.
type walWriter struct {
	id   int
	buf  *SpanBuf
	rng  *workload.RNG
	zipf *workload.Zipf
}

func (w *walRun) writer(wr *walWriter, p *walPass) {
	ops := make([]rma.BatchOp, 2)
	for i := 0; now() < p.end; i++ {
		key := wr.zipf.Next()
		sampled := wr.buf != nil && i%walSampleEvery == 0
		var root int64
		t0 := now()
		if sampled {
			root = wr.buf.Begin(spanClientOp, 0, t0)
		}
		p.attempted++
		var t2 int64
		if wr.rng.Uint64n(100) < walUpsertPct {
			key = key&^(walWriters-1) | int64(wr.id)
			ver := w.model.issued[key].Add(1)
			ops[0] = rma.BatchOp{Kind: rma.OpDelete, Key: key}
			ops[1] = rma.BatchOp{Kind: rma.OpPut, Key: key, Val: valueAt(key, ver)}
			t1 := now()
			deleted, err := w.db.ApplyBatch(ops)
			t2 = now()
			if err != nil || deleted != 1 {
				p.fail(1, "wal-upsert: upsert of key %d: deleted %d, %v", key, deleted, err)
			} else {
				w.model.acked[key].Store(ver)
			}
			p.write.Record(t2, t2-t1)
			p.applyNS += t2 - t1
			p.applyOps += 2
			if sampled {
				wr.buf.Add(spanShardApplyBatch, root, t1, t2)
			}
		} else {
			lo := w.model.acked[key].Load()
			t1 := now()
			v, ok := w.db.Find(key)
			t2 = now()
			if !w.model.check(key, lo, v, ok) {
				p.fail(1, "wal-upsert: Find(%d) = %d, %v", key, v, ok)
			}
			p.read.Record(t2, t2-t1)
			if sampled {
				wr.buf.Add(spanShardFind, root, t1, t2)
			}
		}
		p.ops.Add(t2, 1)
		if sampled {
			wr.buf.End(root, now())
		}
	}
}
