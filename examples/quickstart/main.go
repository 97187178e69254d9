// Quickstart: the basic RMA lifecycle — create, insert, look up, scan,
// aggregate, delete — plus a peek at the internal statistics.
package main

import (
	"fmt"
	"log"
	"sync"

	"rma"
)

func main() {
	// An RMA with the paper's defaults: B=128 clustered segments, static
	// index, memory rewiring, adaptive rebalancing, update-oriented
	// density thresholds.
	a, err := rma.New()
	if err != nil {
		log.Fatal(err)
	}

	// Point updates keep the array sorted and physically sequential.
	for i := int64(0); i < 100_000; i++ {
		if err := a.Insert(i*7%100_000, i); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("size=%d capacity=%d density=%.2f\n", a.Size(), a.Capacity(), a.Density())

	// Point lookup: index descent + one binary search in a segment.
	if v, ok := a.Find(777); ok {
		fmt.Printf("find(777) = %d\n", v)
	}

	// Range scan: one tight loop per segment pair, no gap checks.
	count, sum := a.Sum(1000, 1999)
	fmt.Printf("sum over keys [1000,1999]: count=%d sum=%d\n", count, sum)

	// Callback iteration with early termination.
	printed := 0
	a.ScanRange(0, 50, func(k, v int64) bool {
		printed++
		return printed < 5
	})
	fmt.Printf("visited %d elements of [0,50]\n", printed)

	// Lazy iterators: range-over-func traversal with O(1) state — no
	// part of the range is materialized, breaking out is free.
	visited := 0
	for range a.Range(1000, 1999) {
		visited++
	}
	var newest []int64
	for k := range a.Descend(99_999) { // descending from the top
		newest = append(newest, k)
		if len(newest) == 3 {
			break
		}
	}
	fmt.Printf("iterated %d elements of [1000,1999]; newest three: %v\n", visited, newest)

	// Navigation: nearest stored neighbours of a probe key.
	fl, _, _ := a.Floor(54_321)
	ce, _, _ := a.Ceiling(54_321)
	fmt.Printf("floor/ceiling of 54321: %d / %d\n", fl, ce)

	// Order statistics in O(log n): the array maintains per-segment
	// cardinality prefix sums through every rebalance and resize.
	median, _, _ := a.Select(a.Size() / 2)
	fmt.Printf("rank(50000)=%d  median=%d  |[25000,75000]|=%d\n",
		a.Rank(50_000), median, a.CountRange(25_000, 75_000))

	// Deletes shrink the array when it gets too sparse.
	for i := int64(0); i < 50_000; i++ {
		if _, err := a.Delete(i); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("after deletes: size=%d capacity=%d\n", a.Size(), a.Capacity())

	// The stats expose what the structure did under the hood.
	s := a.Stats()
	fmt.Printf("rebalances=%d (adaptive %d) resizes=%d pageswaps=%d copies=%d\n",
		s.Rebalances, s.AdaptiveRebalances, s.Resizes, s.PageSwaps, s.ElementCopies)

	// Concurrent serving: shard the key space and let a background
	// worker pool execute rebalances off the write path. Writers do
	// only a minimal local spread on overflow; iterators and batches
	// still observe fully rebalanced shards. Close drains the deferred
	// work and stops the pool.
	sh, err := rma.NewSharded(8, rma.WithBackgroundRebalancing(2))
	if err != nil {
		log.Fatal(err)
	}
	defer sh.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 25_000; i++ {
				if err := sh.Insert(i*4+int64(w), i); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()
	ss := sh.Stats()
	fmt.Printf("sharded: size=%d deferred=%d background-runs=%d pending=%d\n",
		ss.Size, ss.DeferredWindows, ss.MaintenanceRuns, ss.PendingWindows)
}
