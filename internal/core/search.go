package core

import "rma/internal/staticindex"

// Find returns the value stored under key and whether it exists. With
// duplicate keys any one match is returned. Cost: one index descent plus
// one in-segment search, exactly the paper's point-lookup path — read
// through the published view, the same code the seqlock readers run.
func (a *Array) Find(key int64) (int64, bool) {
	a.stats.Lookups++
	if a.n == 0 {
		return 0, false
	}
	v, ok, valid := a.view.Load().find(key)
	mustBeCurrent(valid)
	return v, ok
}

// Contains reports whether key is stored.
func (a *Array) Contains(key int64) bool {
	_, ok := a.Find(key)
	return ok
}

// lowerBoundRun returns the first index in the sorted run with
// run[i] >= key (== len(run) if none). It is the one in-run search
// primitive — searchRun and upperBoundRun are thin derivations — and it
// is the branchless conditional-move halving shared with the Dynamic
// index's routing (staticindex.LowerBound).
func lowerBoundRun(run []int64, key int64) int {
	return staticindex.LowerBound(run, key)
}

// searchRun returns the index of one occurrence of key in the sorted
// run (the first, with duplicates), or -1.
func searchRun(run []int64, key int64) int {
	if i := lowerBoundRun(run, key); i < len(run) && run[i] == key {
		return i
	}
	return -1
}

// upperBoundRun returns the first index in the sorted run with
// run[i] > key: the lower bound of the next key up (every key > K is
// >= K+1 on int64), saturating at the domain maximum.
func upperBoundRun(run []int64, key int64) int {
	if key == maxInt64 {
		return len(run)
	}
	return lowerBoundRun(run, key+1)
}

// Min returns the smallest key, or ok=false when empty. One Fenwick
// rank descent routes to the first non-empty segment — O(log S), where
// a linear cards walk would pay O(S) on a sparse front (a freshly
// grown array concentrates elements high).
func (a *Array) Min() (int64, bool) {
	if a.n == 0 {
		return 0, false
	}
	seg, _ := a.fen.find(0)
	return a.segMin(seg), true
}

// Max returns the largest key, or ok=false when empty: the Fenwick
// descent for the last global rank, then the in-segment offset it
// already knows. O(log S).
func (a *Array) Max() (int64, bool) {
	if a.n == 0 {
		return 0, false
	}
	seg, before := a.fen.find(int64(a.n) - 1)
	return a.elemKey(seg, a.n-1-int(before)), true
}

// neighborBefore returns the key preceding (seg, rank) in global order,
// with ok=false at the array start. rank counts elements within seg.
func (a *Array) neighborBefore(seg, rank int) (int64, bool) {
	if rank > 0 {
		return a.elemKey(seg, rank-1), true
	}
	for s := seg - 1; s >= 0; s-- {
		if c := int(a.cards[s]); c > 0 {
			return a.elemKey(s, c-1), true
		}
	}
	return 0, false
}

// neighborAfter returns the key following (seg, rank) in global order,
// with ok=false at the array end.
func (a *Array) neighborAfter(seg, rank int) (int64, bool) {
	if rank < int(a.cards[seg])-1 {
		return a.elemKey(seg, rank+1), true
	}
	for s := seg + 1; s < a.numSegs; s++ {
		if a.cards[s] > 0 {
			return a.elemKey(s, 0), true
		}
	}
	return 0, false
}

// elemKey returns the rank-th smallest key of segment seg. On the
// interleaved layout the slot is found with a word-parallel in-segment
// select — O(B/64) popcounts, not an O(B) bit-by-bit rescan.
func (a *Array) elemKey(seg, rank int) int64 {
	switch a.cfg.Layout {
	case LayoutClustered:
		pg, off := a.segPage(a.keys, seg)
		lo, _ := a.runBounds(seg)
		return pg[off+lo+rank]
	default:
		base := seg * a.segSlots
		s := bmSelect(a.bitmap, base, base+a.segSlots, rank)
		if s < 0 {
			panic("core: elemKey rank out of range")
		}
		pg, off := a.pageAt(a.keys, s)
		return pg[off]
	}
}
