package core

// Batched point lookups. A batch sorts its probe set once and walks the
// sorted probes left to right, remembering the last routed segment and
// the separator bounding it on the right: every probe that still falls
// under that separator skips the index descent entirely. On probe sets
// with any key locality (sorted streams, hot ranges, merge-join sides)
// most probes resolve with zero descents; on uniform random sets the
// sort buys page-ordered access to the key columns. The probe ordering
// is an allocation-free LSD radix sort — a comparison sort's indirect
// calls would cost more than the descents it saves.

// Lookup is one FindBatch/GetBatch result: the value found under the
// probed key, and whether the key was present.
type Lookup struct {
	Val int64
	OK  bool
}

// probe pairs a lookup key with its position in the caller's batch, so
// the probe set can be sorted without losing the output order.
type probe struct {
	k int64
	i int32
}

const (
	// batchSortMin is the smallest batch worth ordering at all; below it
	// the per-key descents are cheaper than any probe shuffling.
	batchSortMin = 8
	// batchRadixMin is the smallest batch worth the radix sort's fixed
	// histogram cost; smaller batches insertion-sort.
	batchRadixMin = 64
)

// FindBatch resolves every key of the batch, writing results into out
// (reused when its capacity suffices, grown otherwise) and returning it
// with len(out) == len(keys): out[i] answers keys[i]. Steady-state calls
// are allocation-free — the probe ordering lives in persistent scratch
// on the array, the same discipline as the rebalance buffers (see
// PERFORMANCE.md).
//
//rma:noalloc
func (a *Array) FindBatch(keys []int64, out []Lookup) []Lookup {
	if cap(out) < len(keys) {
		out = make([]Lookup, len(keys)) //rma:alloc-ok — grows the caller’s result buffer once
	}
	out = out[:len(keys)]
	a.stats.Lookups += uint64(len(keys))
	if len(keys) == 0 {
		return out
	}
	if a.n == 0 {
		for i := range out {
			out[i] = Lookup{}
		}
		return out
	}
	v := a.view.Load()
	if len(keys) < batchSortMin {
		for i, k := range keys {
			out[i] = probeLookup(v, a.ix.FindUB(k), k)
		}
		return out
	}

	// A pre-sorted batch — the streaming/merge-join case — resolves
	// straight off the caller's keys: no probe copy, no sort.
	sorted := true
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		cur := a.startBatch(keys[0])
		for i, k := range keys {
			out[i] = a.nextProbe(v, &cur, k)
		}
		return out
	}

	ps := a.probeScratch(len(keys))
	for i, k := range keys {
		ps[i] = probe{k: k, i: int32(i)}
	}
	sortProbes(ps, a.probeTmp)
	cur := a.startBatch(ps[0].k)
	for _, p := range ps {
		out[p.i] = a.nextProbe(v, &cur, p.k)
	}
	return out
}

// batchCursor is the memoized routing state of one ascending batch
// walk: the last routed segment and the separator bounding it on the
// right.
type batchCursor struct {
	seg   int
	upper int64
}

// startBatch routes the walk's first (smallest) probe with one full
// index descent.
func (a *Array) startBatch(first int64) batchCursor {
	seg := a.ix.FindUB(first)
	return batchCursor{seg: seg, upper: a.segUpperSep(seg)}
}

// nextProbe resolves one probe of an ascending walk: reuse the memoized
// segment while the probe stays under its right separator, otherwise
// gallop the cursor forward.
func (a *Array) nextProbe(v *readView, c *batchCursor, k int64) Lookup {
	if k >= c.upper {
		c.seg = a.gallopSeg(c.seg, k)
		c.upper = a.segUpperSep(c.seg)
	}
	return probeLookup(v, c.seg, k)
}

// probeLookup runs the view's in-segment probe for k in segment seg
// (the caller holds the write lock, so the view is current).
func probeLookup(v *readView, seg int, k int64) Lookup {
	val, ok, valid := v.segFind(seg, k)
	mustBeCurrent(valid)
	return Lookup{Val: val, OK: ok}
}

// gallopSeg advances the batch cursor from segment seg — whose
// separator is known to be <= k — to FindUB(k) by exponential search
// over the separator ordinals (ix.Key is O(1) on every index kind):
// O(log d) for a cursor that moves d segments, so a sorted batch pays
// for the distance it covers, not a full root descent per probe.
func (a *Array) gallopSeg(seg int, k int64) int {
	lo := seg
	hi := a.numSegs // exclusive: separators at (lo, hi) are candidates
	for step := 1; lo+step < hi; step <<= 1 {
		if a.ix.Key(lo+step) > k {
			hi = lo + step
			break
		}
		lo += step
	}
	// Invariant: sep(lo) <= k, and sep(hi) > k (or hi == numSegs).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.ix.Key(mid) <= k {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// segUpperSep returns the separator bounding segment seg on the right:
// the smallest key that can no longer live in seg. Probes below it reuse
// seg without a descent — separators are non-decreasing, so every
// segment right of seg routes only keys >= this bound.
func (a *Array) segUpperSep(seg int) int64 {
	if seg+1 < a.numSegs {
		return a.ix.Key(seg + 1)
	}
	return maxInt64
}

// probeScratch returns the persistent probe buffers at length n, growing
// them only when a larger batch than ever before arrives.
func (a *Array) probeScratch(n int) []probe {
	if cap(a.probeBuf) < n {
		a.probeBuf = make([]probe, n) //rma:alloc-ok — scratch grows to the largest batch seen
		a.probeTmp = make([]probe, n) //rma:alloc-ok — scratch grows to the largest batch seen
	}
	a.probeTmp = a.probeTmp[:n]
	return a.probeBuf[:n]
}

// sortProbes orders ps by key ascending, stably, without allocating:
// insertion sort for small batches, LSD radix sort (8-bit digits over
// the sign-flipped key) through tmp for the rest. tmp must be at least
// len(ps) long.
func sortProbes(ps, tmp []probe) {
	n := len(ps)
	if n < batchRadixMin {
		for i := 1; i < n; i++ {
			p := ps[i]
			j := i - 1
			for j >= 0 && ps[j].k > p.k {
				ps[j+1] = ps[j]
				j--
			}
			ps[j+1] = p
		}
		return
	}

	// One pass builds all eight digit histograms; passes whose digit is
	// constant across the batch (common in clustered key ranges) are
	// skipped outright.
	const signFlip = uint64(1) << 63
	var hist [8][256]int32
	for _, p := range ps {
		u := uint64(p.k) ^ signFlip
		hist[0][u&0xff]++
		hist[1][(u>>8)&0xff]++
		hist[2][(u>>16)&0xff]++
		hist[3][(u>>24)&0xff]++
		hist[4][(u>>32)&0xff]++
		hist[5][(u>>40)&0xff]++
		hist[6][(u>>48)&0xff]++
		hist[7][(u>>56)&0xff]++
	}
	src, dst := ps, tmp[:n]
	for b := 0; b < 8; b++ {
		h := &hist[b]
		shift := uint(b * 8)
		if h[(uint64(src[0].k)^signFlip)>>shift&0xff] == int32(n) {
			continue // every key shares this digit
		}
		var pos [256]int32
		var sum int32
		for d := 0; d < 256; d++ {
			pos[d] = sum
			sum += h[d]
		}
		for _, p := range src {
			d := (uint64(p.k) ^ signFlip) >> shift & 0xff
			dst[pos[d]] = p
			pos[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ps[0] {
		copy(ps, src)
	}
}
