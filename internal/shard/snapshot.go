package shard

import (
	"runtime"
	"sync"
	"time"

	"rma/internal/core"
)

// Cross-shard snapshot reads.
//
// A multi-shard traversal holds one shard lock at a time, so by itself
// it only guarantees per-shard atomicity: writers can slip between
// shard visits. Every reader-visible write bumps the owning shard's
// seqlock version (shard.go), which makes consistency
// checkable: record each shard's version at its visit, and before
// reading any later shard revalidate that every previously visited
// shard still carries its recorded version. If the validation holds
// through the final shard, there is a witness instant — inside the last
// shard's critical section, at the moment of its validation — at which
// every shard simultaneously held exactly the state the traversal
// observed, because versions only ever move forward and an unchanged
// version means an unchanged shard. The whole mechanism costs one
// uint64 per shard and a handful of atomic loads: no global lock, no
// copy, no quiescing of writers.
//
// Traversals that stream results to a callback cannot restart once the
// cut breaks AND elements have been consumed (the caller already saw
// earlier shards); but a break detected before the first yield is
// invisible to the caller, so the traversal restarts from the first
// shard under a fresh vector, backing off exponentially between
// attempts to let the write burst drain. Only a final degradation — a
// break after elements streamed, or retries exhausted — counts a
// SnapshotBreak; SnapshotScanRange surfaces that verdict to the
// caller. Rank consumes nothing externally, so it always retries (with
// the same backoff) and only degrades after a bounded number of broken
// cuts.

// snapVec is a pooled version vector, recycled across traversals so
// steady-state snapshot reads allocate nothing.
type snapVec struct{ v []uint64 }

var vecPool = sync.Pool{New: func() any { return new(snapVec) }}

func getVec(n int) *snapVec {
	sv := vecPool.Get().(*snapVec)
	if cap(sv.v) < n {
		sv.v = make([]uint64, n)
	}
	sv.v = sv.v[:n]
	return sv
}

// versionsMatch reports whether shards jLo..jLo+len(vec)-1 still carry
// the versions recorded in vec. Control-word reads only — safe without
// any shard lock.
//
//rma:noalloc
//rma:seqlock
func (m *Map) versionsMatch(vec []uint64, jLo int) bool {
	for i := range vec {
		if m.shards[jLo+i].ver.Load() != vec[i] {
			return false
		}
	}
	return true
}

// SnapshotScanRange visits every element with lo <= key <= hi in key
// order and reports whether the whole traversal observed one consistent
// cut: true means there was an instant at which every visited shard
// simultaneously held exactly the state the callback saw. On a broken
// cut the scan does not restart (the callback already consumed earlier
// shards); it completes with per-shard-atomic semantics, counts a
// SnapshotBreak, and returns false.
//
// Early termination by the callback returns the consistency status of
// the prefix actually visited; a single-shard traversal is trivially
// consistent.
func (m *Map) SnapshotScanRange(lo, hi int64, visit func(key, val int64) bool) bool {
	if lo > hi {
		return true
	}
	return m.traverse(lo, hi, false, func(a *core.Array) (yielded, more bool) {
		more = true
		a.ScanRange(lo, hi, func(k, v int64) bool {
			yielded = true
			more = visit(k, v)
			return more
		})
		return yielded, more
	})
}

// traverse is the one version-vector traversal behind every ordered
// multi-shard read. It visits the shards owning [lo, hi] in ascending
// order, or descending when descend is set, each under its lock after
// flushing deferred work, and hands the shard's array to visit, which
// streams that shard's portion and reports whether it passed any
// element to the caller and whether the caller wants more. Before each
// shard the already-visited shards are revalidated against the vector;
// a break before the first element restarts the traversal with backoff,
// a later one is counted in SnapshotBreaks. traverse reports whether
// the visited prefix observed one consistent cut.
func (m *Map) traverse(lo, hi int64, descend bool, visit func(a *core.Array) (yielded, more bool)) bool {
	jLo, jHi := m.shardOf(lo), m.shardOf(hi)
	sv := getVec(jHi - jLo + 1)
	defer vecPool.Put(sv)
	vec := sv.v
	consistent := true
	yielded := false
	attempt := 0
	for {
		restart := false
		for i := 0; i <= jHi-jLo; i++ {
			// j is the i-th shard in visiting order; [from, to) are the
			// shards already visited, whose versions vec recorded.
			j, from, to := jLo+i, jLo, jLo+i
			if descend {
				j, from, to = jHi-i, jHi-i+1, jHi+1
			}
			s := &m.shards[j]
			s.mu.Lock()
			flushDeferred(s)
			if consistent && !m.versionsMatch(vec[from-jLo:to-jLo], from) {
				if !yielded && attempt+1 < snapshotAttempts {
					// Nothing streamed yet: the break is invisible to the
					// caller — restart under a fresh vector instead of
					// settling for a torn verdict.
					s.mu.Unlock()
					attempt++
					snapshotBackoff(attempt)
					restart = true
					break
				}
				consistent = false
				m.snapshotBreaks.Add(1)
			}
			vec[j-jLo] = s.ver.Load()
			y, more := visitUnlock(s, visit)
			yielded = yielded || y
			if !more {
				return consistent
			}
		}
		if !restart {
			return consistent
		}
	}
}

// visitUnlock runs visit on shard s, whose lock the caller holds, and
// releases the lock even when visit panics — the consumer's loop body
// runs inside it, and a panic there must not leave the shard locked.
func visitUnlock(s *cell, visit func(a *core.Array) (yielded, more bool)) (bool, bool) {
	defer s.mu.Unlock()
	return visit(s.a)
}

// snapshotAttempts bounds how many broken cuts a snapshot traversal
// tolerates — restarting between them — before settling for the
// per-shard-atomic answer.
const snapshotAttempts = 4

// snapshotBackoff parts a retrying snapshot traversal from the write
// burst that broke its cut: the first retry just yields the processor,
// later ones sleep exponentially (2us, 4us, ...) — long enough for a
// rebalance or batch to drain, short enough to stay invisible next to
// the traversal itself.
func snapshotBackoff(attempt int) {
	if attempt <= 1 {
		runtime.Gosched()
		return
	}
	time.Sleep(time.Duration(1<<uint(attempt)) * time.Microsecond)
}

// Rank returns the number of stored elements with key < x: the sizes of
// the shards left of the owning shard plus the in-shard rank. The sum
// is retried under a fresh version vector until one consistent cut
// covers every contributing shard, then the in-shard rank of the owning
// shard completes it under the same cut; after snapshotAttempts broken
// cuts it settles for a consistent-per-shard sum.
func (m *Map) Rank(x int64) int {
	j := m.shardOf(x)
	sv := getVec(j + 1)
	defer vecPool.Put(sv)
	vec := sv.v
	for attempt := 0; attempt < snapshotAttempts; attempt++ {
		if attempt > 0 {
			snapshotBackoff(attempt)
		}
		r := 0
		consistent := true
		for i := 0; i <= j; i++ {
			s := &m.shards[i]
			s.mu.Lock()
			if !m.versionsMatch(vec[:i], 0) {
				consistent = false
			}
			vec[i] = s.ver.Load()
			if consistent {
				if i < j {
					r += s.a.Size()
				} else {
					r += s.a.Rank(x)
				}
			}
			s.mu.Unlock()
			if !consistent {
				break
			}
		}
		if consistent {
			return r
		}
	}
	// Every attempt lost the race; settle for the per-shard-atomic sum.
	m.snapshotBreaks.Add(1)
	r := 0
	for i := 0; i <= j; i++ {
		s := &m.shards[i]
		s.mu.Lock()
		if i < j {
			r += s.a.Size()
		} else {
			r += s.a.Rank(x)
		}
		s.mu.Unlock()
	}
	return r
}
