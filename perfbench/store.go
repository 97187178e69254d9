package main

import (
	"fmt"
	"runtime/debug"
	"slices"

	"rma"
)

// servingOptions are rmaserve's serving options: lock-free point reads
// and background rebalancing with one worker per CPU. Every workload
// runs the store with them.
func servingOptions() []rma.Option {
	return []rma.Option{rma.WithLockFreeReads(), rma.WithBackgroundRebalancing(-1)}
}

const numShards = 8

// loadSorted puts the ascending pairs keys/vals into db with one
// ApplyBatch per shard: each shard takes its keys in one bulk load, so
// its layout depends only on how many keys it receives.
func loadSorted(db *rma.Sharded, keys, vals []int64) error {
	seps := db.Boundaries()
	var ops []rma.BatchOp
	for i := 0; i < len(keys); {
		j := len(keys)
		// Shard s holds the keys below seps[s] (and at or above seps[s-1]).
		s, onSep := slices.BinarySearch(seps, keys[i])
		if onSep {
			s++
		}
		if s < len(seps) {
			j, _ = slices.BinarySearch(keys, seps[s])
		}
		ops = slices.Grow(ops[:0], j-i)
		for ; i < j; i++ {
			ops = append(ops, rma.BatchOp{Kind: rma.OpPut, Key: keys[i], Val: vals[i]})
		}
		if _, err := db.ApplyBatch(ops); err != nil {
			return fmt.Errorf("bulk load: %w", err)
		}
	}
	return db.Flush()
}

// dump returns the store's contents in key order.
func dump(db *rma.Sharded) (keys, vals []int64) {
	keys = make([]int64, 0, db.Size())
	vals = make([]int64, 0, db.Size())
	db.Scan(func(k, v int64) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	return keys, vals
}

// restoreFromDump measures an in-memory store's restart: a fresh store
// with the same options reloaded from an ordered dump of its contents,
// once to warm up and then recoverRounds times; seconds is the median.
// Callers close and drop the old store first, as a restart would. The
// collector is paused inside each timed rebuild: with the benchmark's
// dump and model live, none, one or two collections fell inside a
// rebuild, which then read 68, 82 or 97 ms. Each rebuilt store is
// checked against the dump and discarded; bad counts the pairs that did
// not match.
func restoreFromDump(keys, vals []int64) (seconds float64, bad int64, err error) {
	var secs []float64
	for r := range 1 + recoverRounds {
		s, b, err := restoreOnce(keys, vals)
		if err != nil {
			return 0, 0, err
		}
		if r > 0 { // the first round also pays for growing the heap
			secs = append(secs, s)
		}
		bad += b
	}
	return median(secs), bad, nil
}

func restoreOnce(keys, vals []int64) (seconds float64, bad int64, err error) {
	debug.FreeOSMemory()
	gc := debug.SetGCPercent(-1)
	t0 := now()
	db, err := rma.NewSharded(numShards, servingOptions()...)
	if err != nil {
		debug.SetGCPercent(gc)
		return 0, 0, err
	}
	defer db.Close()
	err = loadSorted(db, keys, vals)
	seconds = float64(now()-t0) / 1e9
	debug.SetGCPercent(gc)
	if err != nil {
		return 0, 0, err
	}
	if db.Size() != len(keys) {
		bad++
	}
	i := 0
	db.Scan(func(k, v int64) bool {
		if i >= len(keys) || keys[i] != k || vals[i] != v {
			bad++
		}
		i++
		return true
	})
	return seconds, bad, nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupRounds is how many times a run builds its store; setup_s is the
// median. recover_s is the median of recoverRounds restarts.
const (
	setupRounds   = 3
	recoverRounds = 5
)

// setLatency reports a recorder's whole-run median and 0.99 quantile in
// microseconds under prefix: every sample of the run is pooled, so a
// stall that hits a few windows still counts. It notes the whole-run
// 0.999 quantile and sample count, and the median over blocks of
// windows of each block's p99, which leaves rare stalls out.
func setLatency(res *result, prefix string, r *winRec, end int64) {
	a := &r.all
	res.set(prefix+"_p50_us", a.Quantile(0.5)/1e3, "us")
	res.set(prefix+"_p99_us", a.Quantile(0.99)/1e3, "us")
	res.note("%s latency: p999=%.2fus n=%d; median window-block p99=%.2fus", prefix,
		a.Quantile(0.999)/1e3, a.Count(), r.Quantile(0.99, end)/1e3)
}

// windowRatio is the median over the full windows before end of num/den,
// skipping windows where den is 0.
func windowRatio(num, den *winCount, end int64) float64 {
	var rs []float64
	for i := 0; i < len(den.n) && den.start+int64(i+1)*winNS <= end; i++ {
		if den.n[i] > 0 && i < len(num.n) {
			rs = append(rs, float64(num.n[i])/float64(den.n[i]))
		}
	}
	return median(rs)
}
