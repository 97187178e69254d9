package core

import "fmt"

// Validate checks every structural invariant of the array. Tests call it
// after operation sequences; it is deliberately exhaustive and O(n).
//
// Invariants:
//  1. cards sum to n; every card in [0, B].
//  2. Clustered: each segment's run packs to the correct end (parity).
//     Interleaved: bitmap popcount per segment matches cards.
//  3. Keys are globally sorted across the traversal order.
//  4. Separators: for every segment j >= 1, all keys in segments < j are
//     <= sep(j) and all keys in segments >= j are >= sep(j); for a
//     non-empty segment sep(j) equals its minimum, for an empty one it
//     equals the minimum of the nearest non-empty segment to the right
//     (or unsetSep).
//  5. Values travel with keys: Find on every stored key succeeds.
//  6. Geometry: capacity = numSegs * B, both powers of two, capacity a
//     multiple of PageSlots.
//  7. The published read view matches the live headers: layout,
//     geometry, the cards/bitmap slices, the index and both page tables
//     (every read, locked or optimistic, goes through it).
func (a *Array) Validate() error {
	if got := a.numSegs * a.segSlots; got != a.Capacity() {
		return fmt.Errorf("capacity mismatch: %d", got)
	}
	if a.Capacity()%a.cfg.PageSlots != 0 {
		return fmt.Errorf("capacity %d not page-aligned", a.Capacity())
	}
	if a.segSlots&(a.segSlots-1) != 0 {
		return fmt.Errorf("segment size not a power of two: B=%d", a.segSlots)
	}
	if err := a.validateView(); err != nil {
		return err
	}

	total := 0
	for s := 0; s < a.numSegs; s++ {
		c := int(a.cards[s])
		if c < 0 || c > a.segSlots {
			return fmt.Errorf("segment %d: card %d out of [0,%d]", s, c, a.segSlots)
		}
		total += c
	}
	if total != a.n {
		return fmt.Errorf("cards sum %d != n %d", total, a.n)
	}

	// Fenwick prefix sums must agree with cards at every segment.
	run := int64(0)
	for s := 0; s < a.numSegs; s++ {
		if got := a.fen.prefix(s); got != run {
			return fmt.Errorf("fenwick prefix(%d) = %d, cards say %d", s, got, run)
		}
		run += int64(a.cards[s])
	}
	if got := a.fen.prefix(a.numSegs); got != int64(a.n) {
		return fmt.Errorf("fenwick total %d != n %d", got, a.n)
	}

	if a.cfg.Layout == LayoutInterleaved {
		for s := 0; s < a.numSegs; s++ {
			pop := bmRank(a.bitmap, s*a.segSlots, (s+1)*a.segSlots)
			if pop != int(a.cards[s]) {
				return fmt.Errorf("segment %d: bitmap %d != card %d", s, pop, a.cards[s])
			}
		}
	}

	// Global sortedness.
	prev := int64(minInt64)
	for s := 0; s < a.numSegs; s++ {
		for r := 0; r < int(a.cards[s]); r++ {
			k := a.elemKey(s, r)
			if k < prev {
				return fmt.Errorf("order violation at segment %d rank %d: %d < %d", s, r, k, prev)
			}
			prev = k
		}
	}

	// Separator invariants.
	carry := unsetSep
	for j := a.numSegs - 1; j >= 1; j-- {
		if a.cards[j] > 0 {
			carry = a.segMin(j)
		}
		if got := a.ix.Key(j); got != carry {
			return fmt.Errorf("separator %d: index has %d, want %d", j, got, carry)
		}
	}

	// Every stored key is findable with its value.
	for s := 0; s < a.numSegs; s++ {
		for r := 0; r < int(a.cards[s]); r++ {
			k := a.elemKey(s, r)
			if _, ok := a.Find(k); !ok {
				return fmt.Errorf("stored key %d (seg %d rank %d) not findable", k, s, r)
			}
		}
	}
	return nil
}

// validateView checks invariant 7: the view a reader would load now
// describes exactly the headers a writer is working on.
func (a *Array) validateView() error {
	v := a.view.Load()
	switch {
	case v == nil:
		return fmt.Errorf("read view: none published")
	case v.layout != a.cfg.Layout || v.pageShift != a.pageShift || v.pageSlots != a.cfg.PageSlots:
		return fmt.Errorf("read view: layout/page geometry differs from the array")
	case v.numSegs != a.numSegs || v.segSlots != a.segSlots:
		return fmt.Errorf("read view: %d segs x %d slots, array has %d x %d",
			v.numSegs, v.segSlots, a.numSegs, a.segSlots)
	case !sameSlice(v.cards, a.cards) || !sameSlice(v.bitmap, a.bitmap):
		return fmt.Errorf("read view: cards/bitmap are not the array's")
	case v.ix != a.ix:
		return fmt.Errorf("read view: index is not the array's")
	case !sameSlice(v.keysTab, a.keys.Table()) || !sameSlice(v.valsTab, a.vals.Table()):
		return fmt.Errorf("read view: page tables are not the array's")
	}
	return nil
}

// sameSlice reports whether x and y are the same slice header's view of
// memory: equal length and the same first element.
func sameSlice[T any](x, y []T) bool {
	return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
}
