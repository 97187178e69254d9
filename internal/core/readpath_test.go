package core

import (
	"sort"
	"testing"

	"rma/internal/workload"
)

// Differential tests for the read view: Find, Floor, Ceiling, Rank and
// CountRange (locked, through the view) and ReadFind, ReadFloor and
// ReadCeiling (optimistic) must agree exactly with a reference derived
// from the array's ordered scan — which walks the segments directly,
// not through the view — across every layout/index configuration, keep
// agreeing across rebalances and resizes (view republication), and
// fail closed — valid=false, never garbage — when handed a stale view.

func readpathConfigs() map[string]Config {
	small := func(c Config) Config {
		c.SegmentSlots = 8
		c.PageSlots = 32
		return c
	}
	iv := small(DefaultConfig())
	iv.Layout = LayoutInterleaved
	st := small(DefaultConfig())
	st.Index = IndexStatic
	dyn := small(DefaultConfig())
	dyn.Index = IndexDynamic
	return map[string]Config{
		"clustered-eytzinger":   small(DefaultConfig()),
		"interleaved-eytzinger": iv,
		"clustered-static":      st,
		"clustered-dynamic":     dyn,
		"baseline":              small(BaselineConfig()),
	}
}

func TestReadPathDifferential(t *testing.T) {
	for name, cfg := range readpathConfigs() {
		t.Run(name, func(t *testing.T) {
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := workload.NewRNG(42)
			keys := make(map[int64]bool)
			for i := 0; i < 5_000; i++ {
				k := int64(rng.Uint64n(16_384))
				if rng.Uint64n(100) < 25 && len(keys) > 0 {
					if _, err := a.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(keys, k)
				} else {
					if err := a.Insert(k, k*3+1); err != nil {
						t.Fatal(err)
					}
					keys[k] = true
				}
				if i%500 != 499 {
					continue
				}
				// Mid-stream agreement: the view has survived however
				// many rebalances, spreads and resizes the stream forced.
				ref := scanReference(a)
				for p := 0; p < 200; p++ {
					x := int64(rng.Uint64n(17_000)) - 300
					checkReadAgainstLocked(t, a, x)
					checkReadAgainstScan(t, a, ref, x)
					if t.Failed() {
						t.FailNow()
					}
				}
			}
		})
	}
}

// scanRef is the array's elements in key order, collected by
// ScanRange: the reference the view reads are checked against.
type scanRef struct{ keys, vals []int64 }

func scanReference(a *Array) scanRef {
	var r scanRef
	a.ScanRange(minInt64, maxInt64, func(k, v int64) bool {
		r.keys = append(r.keys, k)
		r.vals = append(r.vals, v)
		return true
	})
	return r
}

// checkReadAgainstScan checks the locked reads at x against the sorted
// scan reference. Every stored value is a function of its key, so
// duplicates cannot make the expected value ambiguous.
func checkReadAgainstScan(t *testing.T, a *Array, ref scanRef, x int64) {
	t.Helper()
	keys, vals := ref.keys, ref.vals
	lb := sort.Search(len(keys), func(i int) bool { return keys[i] >= x })
	ub := sort.Search(len(keys), func(i int) bool { return keys[i] > x })
	if v, ok := a.Find(x); ok != (lb < ub) || (ok && v != vals[lb]) {
		t.Errorf("Find(%d) = (%d,%v), scan has %d copies", x, v, ok, ub-lb)
	}
	if k, v, ok := a.Floor(x); ok != (ub > 0) || (ok && (k != keys[ub-1] || v != vals[ub-1])) {
		t.Errorf("Floor(%d) = (%d,%d,%v), scan disagrees", x, k, v, ok)
	}
	if k, v, ok := a.Ceiling(x); ok != (lb < len(keys)) || (ok && (k != keys[lb] || v != vals[lb])) {
		t.Errorf("Ceiling(%d) = (%d,%d,%v), scan disagrees", x, k, v, ok)
	}
	if r := a.Rank(x); r != lb {
		t.Errorf("Rank(%d) = %d, scan says %d", x, r, lb)
	}
	hi := x + 100
	end := sort.Search(len(keys), func(i int) bool { return keys[i] > hi })
	if c := a.CountRange(x, hi); c != end-lb {
		t.Errorf("CountRange(%d, %d) = %d, scan says %d", x, hi, c, end-lb)
	}
}

func checkReadAgainstLocked(t *testing.T, a *Array, x int64) {
	t.Helper()
	wantV, wantOK := a.Find(x)
	gotV, gotOK, valid := a.ReadFind(x)
	if !valid {
		t.Errorf("ReadFind(%d) invalid on a quiescent array", x)
		return
	}
	if gotOK != wantOK || (wantOK && gotV != wantV) {
		t.Errorf("ReadFind(%d) = (%d,%v), Find says (%d,%v)", x, gotV, gotOK, wantV, wantOK)
	}
	fk, fv, fok := a.Floor(x)
	gfk, gfv, gfok, fvalid := a.ReadFloor(x)
	if !fvalid {
		t.Errorf("ReadFloor(%d) invalid on a quiescent array", x)
		return
	}
	if gfok != fok || (fok && (gfk != fk || gfv != fv)) {
		t.Errorf("ReadFloor(%d) = (%d,%d,%v), Floor says (%d,%d,%v)", x, gfk, gfv, gfok, fk, fv, fok)
	}
	ck, cv, cok := a.Ceiling(x)
	gck, gcv, gcok, cvalid := a.ReadCeiling(x)
	if !cvalid {
		t.Errorf("ReadCeiling(%d) invalid on a quiescent array", x)
		return
	}
	if gcok != cok || (cok && (gck != ck || gcv != cv)) {
		t.Errorf("ReadCeiling(%d) = (%d,%d,%v), Ceiling says (%d,%d,%v)", x, gck, gcv, gcok, ck, cv, cok)
	}
}

// TestReadPathStaleViewFailsClosed pins the defensive contract: a view
// captured before a resize, probed against the post-resize array, must
// either answer correctly or report valid=false — never panic, never
// return a value that was not stored. The shard layer's version check
// would discard the answer either way; this test proves the view layer
// alone cannot crash on torn state.
func TestReadPathStaleViewFailsClosed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SegmentSlots = 8
	cfg.PageSlots = 32
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		if err := a.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	stale := a.view.Load()
	if stale == nil {
		t.Fatal("no view published")
	}
	// Force many resizes so the stale view's layout is thoroughly wrong.
	for i := int64(64); i < 50_000; i++ {
		if err := a.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(49_999); i >= 1_000; i-- {
		if _, err := a.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	for x := int64(-10); x < 1_100; x++ {
		if v, ok, valid := stale.find(x); valid && ok {
			// A stale-but-valid hit must still be a value that was stored
			// under some key at some point (all values equal their key
			// here modulo the two insert loops).
			if v != x {
				t.Fatalf("stale view returned fabricated value %d for key %d", v, x)
			}
		}
		stale.floor(x)   // must not panic
		stale.ceiling(x) // must not panic
	}
}

// TestReadPathAllocationFree pins the three view probes at zero
// allocations — they are //rma:noalloc roots, and the escape gate
// verifies the closure statically; this is the dynamic witness.
func TestReadPathAllocationFree(t *testing.T) {
	cfg := DefaultConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10_000; i++ {
		if err := a.Insert(i*2, i); err != nil {
			t.Fatal(err)
		}
	}
	var sink int64
	if allocs := testing.AllocsPerRun(50, func() {
		for x := int64(0); x < 64; x++ {
			v, _, _ := a.ReadFind(x * 37)
			fk, _, _, _ := a.ReadFloor(x * 37)
			ck, _, _, _ := a.ReadCeiling(x * 37)
			sink += v + fk + ck
		}
	}); allocs != 0 {
		t.Errorf("ReadFind/ReadFloor/ReadCeiling: %.1f allocs/run, want 0", allocs)
	}
	_ = sink
}

// TestValidateCatchesMissedPublish: every read goes through the
// published view, so a geometry change that skips publishView would
// break locked reads too — Validate must notice the stale view, not
// just the optimistic readers. Each case mutates the headers the way a
// buggy geometry change would and leaves the old view in place.
func TestValidateCatchesMissedPublish(t *testing.T) {
	cases := map[string]func(a *Array){
		"resize": func(a *Array) {
			if err := a.resizeTo(a.Capacity()*2, nil); err != nil {
				t.Fatal(err)
			}
		},
		"cards": func(a *Array) { a.cards = append([]int32(nil), a.cards...) },
		"index": func(a *Array) { a.rebuildIndexFromLayout() },
		"pages": func(a *Array) {
			if err := a.keys.Grow(1); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SegmentSlots = 8
			cfg.PageSlots = 32
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 500; i++ {
				if err := a.Insert(i*7, i); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("fresh array: %v", err)
			}
			stale := a.view.Load()
			mutate(a)
			a.view.Store(stale)
			if err := a.Validate(); err == nil {
				t.Fatal("Validate accepted a stale read view")
			} else {
				t.Log(err)
			}
		})
	}
}
