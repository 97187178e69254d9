// Package core implements the paper's sparse arrays: one configurable
// engine that spans the whole design space from the Traditional PMA
// (TPMA) baseline of Section II to the full Rewired Memory Array (RMA) of
// Sections III-IV. Every feature the paper ablates in Fig 14 —
// clustering, fixed-size segments, the static index, memory rewiring,
// adaptive rebalancing — is a configuration axis that switches a real
// code path, so the cumulative-contributions experiment toggles exactly
// the mechanisms the paper describes.
package core

import (
	"fmt"
	"reflect"

	"rma/internal/calibrator"
	"rma/internal/detector"
)

// Layout selects how elements sit inside segments.
type Layout int

const (
	// LayoutClustered packs the elements of each segment toward one end —
	// the right end for the first segment of every pair and the left end
	// for the second — so every pair of segments exposes one contiguous
	// run and scans need no per-slot gap test (Section III "Segments").
	LayoutClustered Layout = iota
	// LayoutInterleaved spreads elements across the segment's slots with
	// gaps in between, tracked by an occupancy bitmap: the classic PMA
	// layout whose per-slot emptiness check costs a branch misprediction
	// per element scanned (Section I).
	LayoutInterleaved
)

// SegmentSizing selects how the segment capacity evolves.
type SegmentSizing int

const (
	// SizingFixed keeps the segment size constant at Config.SegmentSlots,
	// tuned to the I/O-model block size like an (a,b)-tree leaf
	// (Section III).
	SizingFixed SegmentSizing = iota
	// SizingLogCap recomputes the segment size as Theta(log2 C) on every
	// resize: the RAM-model remnant used by traditional PMAs, which the
	// paper shows produces segments too small for scans and updates.
	SizingLogCap
)

// IndexKind selects the structure that routes keys to segments.
type IndexKind int

const (
	// IndexStatic is the RMA's pointer-free packed index (Fig 5):
	// fanout-65 nodes, O(1) single-entry updates, rebuilt only on resize.
	IndexStatic IndexKind = iota
	// IndexDynamic is the flat sorted array of segment minima that
	// traditional PMAs keep on the side, binary searched on every lookup.
	IndexDynamic
	// IndexEytzinger is the branchless evolution of the static index:
	// separators in BFS (Eytzinger) order, descended with one compare
	// and one shift-or per level — no inner binary search — with the
	// grandchild cache lines touched ahead of the compare chain, plus a
	// linear fast path for shallow arrays. Same O(1) separator updates
	// and resize-only rebuilds as IndexStatic; the default.
	IndexEytzinger
)

// RebalanceMode selects the physical redistribution mechanism.
type RebalanceMode int

const (
	// RebalanceRewired writes each element once into spare physical pages
	// and swaps virtual page-table entries (Fig 6); windows smaller than
	// a page fall back to the two-pass scheme, as in the paper.
	RebalanceRewired RebalanceMode = iota
	// RebalanceTwoPass is the classic scheme: compact every element into
	// auxiliary storage, then copy it again to its final position — two
	// copies per element.
	RebalanceTwoPass
)

// AdaptivePolicy selects the rebalancing policy.
type AdaptivePolicy int

const (
	// AdaptiveOff rebalances evenly (TPMA).
	AdaptiveOff AdaptivePolicy = iota
	// AdaptiveRMA is the paper's adaptive algorithm (Section IV): marked
	// intervals follow the predicted key frontier and move to the
	// least-loaded child.
	AdaptiveRMA
	// AdaptiveAPMA mimics Bender & Hu's APMA policy: whole-segment marks
	// pinned to their original side of the window. Under sorted
	// sequential insertions this is the policy whose "ping-pong" failure
	// mode Section II describes. It does not support deletions, like the
	// original.
	AdaptiveAPMA
)

// Config assembles an engine configuration. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// SegmentSlots is the segment capacity B in elements (power of two,
	// >= 4). Ignored when Sizing == SizingLogCap, which derives it from
	// the capacity.
	SegmentSlots int
	Sizing       SegmentSizing
	Layout       Layout
	Index        IndexKind
	Rebalance    RebalanceMode
	Adaptive     AdaptivePolicy
	Thresholds   calibrator.Thresholds
	// IndexFanout is the static index node fanout (children per node);
	// the paper fixes 64 separator keys per node, i.e. fanout 65.
	IndexFanout int
	// PageSlots is the vmem page size in slots (power of two). It must
	// be at least 2*SegmentSlots so a segment pair never crosses a page.
	PageSlots int
	// Detector configures adaptive rebalancing; ignored when
	// Adaptive == AdaptiveOff.
	Detector detector.Config
}

// DefaultConfig returns the paper's RMA configuration — B=128 clustered
// fixed-size segments, rewired rebalances on 2048-slot (16 KB) pages,
// adaptive rebalancing, update-oriented thresholds (the defaults of
// Section V) — with one upgrade over the paper: the segment index
// defaults to the branchless Eytzinger descent (IndexEytzinger). Set
// Index to IndexStatic for the paper's exact Fig 5 structure.
func DefaultConfig() Config {
	return Config{
		SegmentSlots: 128,
		Sizing:       SizingFixed,
		Layout:       LayoutClustered,
		Index:        IndexEytzinger,
		Rebalance:    RebalanceRewired,
		Adaptive:     AdaptiveRMA,
		Thresholds:   calibrator.UpdateOriented(),
		IndexFanout:  65,
		PageSlots:    2048,
		Detector:     detector.DefaultConfig(),
	}
}

// BaselineConfig returns the TPMA baseline of Fig 1a / Fig 14:
// interleaved layout, log-sized segments, dynamic side index, two-pass
// rebalances, even rebalancing, literature thresholds.
func BaselineConfig() Config {
	cfg := DefaultConfig()
	cfg.Sizing = SizingLogCap
	cfg.Layout = LayoutInterleaved
	cfg.Index = IndexDynamic
	cfg.Rebalance = RebalanceTwoPass
	cfg.Adaptive = AdaptiveOff
	cfg.Thresholds = calibrator.Baseline()
	return cfg
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Sizing == SizingFixed {
		if c.SegmentSlots < 4 || c.SegmentSlots&(c.SegmentSlots-1) != 0 {
			return fmt.Errorf("core: SegmentSlots must be a power of two >= 4, got %d", c.SegmentSlots)
		}
		if c.PageSlots < 2*c.SegmentSlots {
			return fmt.Errorf("core: PageSlots %d < 2*SegmentSlots %d (a segment pair must fit in a page)",
				c.PageSlots, c.SegmentSlots)
		}
	}
	if c.PageSlots < 8 || c.PageSlots&(c.PageSlots-1) != 0 {
		return fmt.Errorf("core: PageSlots must be a power of two >= 8, got %d", c.PageSlots)
	}
	if c.IndexFanout < 2 {
		return fmt.Errorf("core: IndexFanout must be >= 2, got %d", c.IndexFanout)
	}
	if err := c.Thresholds.Validate(); err != nil {
		return err
	}
	if c.Sizing == SizingLogCap && c.Thresholds.Strategy != calibrator.ResizeDouble {
		// Log-sized segments are recomputed from the capacity; the
		// proportional strategy's arbitrary capacities would break the
		// power-of-two segment size.
		return fmt.Errorf("core: SizingLogCap requires the doubling resize strategy")
	}
	if c.Adaptive != AdaptiveOff {
		if err := c.Detector.Validate(); err != nil {
			return err
		}
	}
	if c.Adaptive == AdaptiveAPMA && c.Thresholds.ForceShrinkFill > 0 {
		// APMA has no deletion support; the forced-shrink rule is a
		// deletion feature and would never fire, but reject the
		// combination to keep configurations honest.
		return fmt.Errorf("core: APMA policy does not support deletions (ForceShrinkFill set)")
	}
	return nil
}

// Stats is a snapshot of the store's operation counters and gauges —
// the one definition every layer shares. Array.Stats fills the engine's
// fields; the shard layer sums them across shards with Add and fills its
// own read-path, WAL and checkpoint fields; the rma facade returns it as
// rma.Stats; the RESP server's STATS prints every field under its
// snake_case name. The counters let the benchmark harness attribute
// costs the way the paper does (e.g. "rebalances are responsible for
// between 2% and 50% of the cost of insertions").
//
// Every field is an integer that Add sums, except those tagged
// stats:"max", which take the maximum; a new field needs no other edit.
type Stats struct {
	// Size is the stored element count; PendingWindows the deferred
	// rebalance backlog (0 without WithBackgroundRebalancing);
	// FootprintBytes the physical memory held, including spare rewiring
	// pages, the index and the detector. Across shards each is summed
	// shard by shard (per-shard consistent, like every multi-shard read).
	Size           int
	PendingWindows int
	FootprintBytes int64

	Inserts, Deletes, Lookups uint64
	// Rebalances counts window rebalances (resizes excluded);
	// AdaptiveRebalances those that used the Detector's marked
	// intervals.
	Rebalances, AdaptiveRebalances uint64
	// RebalancedSegments and RebalancedElements count the segments
	// touched and elements moved by rebalances; ElementCopies counts
	// copy operations (two-pass copies twice); MaxWindowSegments is the
	// largest window ever rebalanced.
	RebalancedSegments, RebalancedElements, ElementCopies uint64
	MaxWindowSegments                                     int `stats:"max"`
	// PageSwaps counts O(1) virtual page rewirings.
	PageSwaps uint64
	// SlotScans counts slots covered by interleaved stream readers
	// during resizes and bulk loads (the linearity guard).
	SlotScans uint64
	// Resizes, Grows, Shrinks count capacity changes.
	Resizes, Grows, Shrinks uint64
	BulkLoads               uint64
	// DeferredWindows counts density violations handed to the
	// background rebalancer instead of repaired on the write path;
	// MaintenanceRuns counts the background passes that found a
	// violation still standing and executed the deferred rebalance or
	// resize. Both stay 0 without WithBackgroundRebalancing.
	DeferredWindows, MaintenanceRuns uint64
	// AllocFailures counts storage allocation failures surfaced by the
	// rebalance/resize machinery as ErrAllocFailed (failure injection in
	// tests; a real allocator would return them under memory pressure).
	// The structure rolls back and stays consistent after each one.
	AllocFailures uint64
	// Checkpoints and CheckpointFailures count published and failed
	// checkpoint attempts; CheckpointPages counts dirty pages persisted
	// across all published checkpoints (steady-state checkpoints write
	// only what changed). All stay 0 without WithDurability.
	Checkpoints, CheckpointFailures, CheckpointPages uint64
	// CheckpointRounds and CheckpointLSN identify the last published
	// recovery point of a sharded store: rounds published since this
	// process started and the WAL LSN the latest covers (both 0 on an
	// Array and without WithDurability / WithWAL).
	CheckpointRounds, CheckpointLSN uint64
	// Read-path counters of the sharded map (all stay 0 on an Array).
	// LockFreeReads counts point reads served without a shard lock;
	// ReadRetries counts optimistic attempts discarded by a racing
	// writer; ReadFallbacks counts reads that exhausted their retry
	// budget and took the locked path; EpochAdvances counts retired-page
	// reclamation rounds; SnapshotBreaks counts cross-shard reads that
	// lost version-vector consistency and degraded to per-shard
	// semantics.
	LockFreeReads, ReadRetries, ReadFallbacks uint64
	EpochAdvances, SnapshotBreaks             uint64
	// Write-ahead-log counters; all stay 0 without WithWAL. Records,
	// waves and syncs count staged records, group-commit waves and
	// fsyncs; rotations/truncations count segment lifecycle; the
	// *Failures counters count faults on each WAL edge (injected or
	// real) — after every one the store keeps serving with its last
	// recovery point intact. AutoCheckpoints counts the checkpoint
	// rounds the automatic scheduler started (dirty pages, WAL bytes or
	// elapsed time crossed a threshold).
	WALRecords, WALWaves, WALSyncs         uint64
	WALRotations, WALTruncations           uint64
	WALAppendFailures, WALSyncFailures     uint64
	WALRotateFailures, WALTruncateFailures uint64
	AutoCheckpoints                        uint64
}

// Add folds o into s field by field: integer fields sum, fields tagged
// stats:"max" keep the larger value. It panics on a field of any other
// kind, so a new field that Add cannot fold fails the tests at once.
func (s *Stats) Add(o Stats) {
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for i := range sv.NumField() {
		f, g := sv.Field(i), ov.Field(i)
		keepMax := sv.Type().Field(i).Tag.Get("stats") == "max"
		switch {
		case f.CanInt() && keepMax:
			f.SetInt(max(f.Int(), g.Int()))
		case f.CanInt():
			f.SetInt(f.Int() + g.Int())
		case f.CanUint() && keepMax:
			f.SetUint(max(f.Uint(), g.Uint()))
		case f.CanUint():
			f.SetUint(f.Uint() + g.Uint())
		default:
			panic("core: Stats." + sv.Type().Field(i).Name + " is not an integer")
		}
	}
}
