package core

// Navigation and order-statistic queries. All of them combine one index
// descent (O(log S)) with one in-segment binary search (O(log B)); the
// rank-based ones additionally use the Fenwick tree over segment
// cardinalities, so Rank, Select and CountRange run in O(log S + log B)
// without touching more than one segment.

// rankOf counts stored elements with key < x (inclusive=false) or
// key <= x (inclusive=true).
func (a *Array) rankOf(x int64, inclusive bool) int {
	if a.n == 0 {
		return 0
	}
	var seg int
	if inclusive {
		seg = a.ix.FindUB(x)
	} else {
		seg = a.ix.FindLB(x)
	}
	cnt := int(a.fen.prefix(seg))
	if c := int(a.cards[seg]); c > 0 {
		v := a.view.Load()
		var r int
		var valid bool
		if inclusive {
			r, valid = v.segUpperBound(seg, c, x)
		} else {
			r, valid = v.segLowerBound(seg, c, x)
		}
		mustBeCurrent(valid)
		cnt += r
	}
	return cnt
}

// Rank returns the number of stored elements with key strictly less
// than x: the position x would occupy in the sorted multiset.
func (a *Array) Rank(x int64) int { return a.rankOf(x, false) }

// CountRange returns the number of elements with lo <= key <= hi.
func (a *Array) CountRange(lo, hi int64) int {
	if a.n == 0 || lo > hi {
		return 0
	}
	return a.rankOf(hi, true) - a.rankOf(lo, false)
}

// Select returns the i-th smallest element (0-based), locating its
// segment with one Fenwick descent.
func (a *Array) Select(i int) (key, val int64, ok bool) {
	if i < 0 || i >= a.n {
		return 0, 0, false
	}
	seg, before := a.fen.find(int64(i))
	r := i - int(before)
	return a.elemKey(seg, r), a.elemVal(seg, r), true
}

// Floor returns the greatest stored element with key <= x, read
// through the published view.
func (a *Array) Floor(x int64) (key, val int64, ok bool) {
	key, val, ok, valid := a.view.Load().floor(x)
	mustBeCurrent(valid)
	return key, val, ok
}

// Ceiling returns the smallest stored element with key >= x, read
// through the published view.
func (a *Array) Ceiling(x int64) (key, val int64, ok bool) {
	key, val, ok, valid := a.view.Load().ceiling(x)
	mustBeCurrent(valid)
	return key, val, ok
}
