// Package wal is the store's write-ahead log: a segmented append-only
// log with CRC-32C-protected records, monotone LSNs, and a group-commit
// core that amortizes one write+fsync over every writer staged during a
// commit wave.
//
// Writers call Append, which assigns the next LSN and stages the
// encoded record into a lock-striped ring (allocation-free in steady
// state — the path is //rma:noalloc-annotated and checked by rmavet),
// then block in Wait until a single syncer goroutine has collected the
// staged bytes of every stripe, written them with one write, and — per
// the SyncPolicy — fsynced. Acknowledging a write after Wait returns
// under SyncAlways therefore promises it survives kill -9.
//
// Recovery reads segments in sequence order and stops at the first
// record that fails validation: a torn tail (the crash-normal case) is
// physically truncated on Open so the log is fully intact afterwards,
// and anything after a mid-log corruption (media damage, outside the
// crash contract) is conservatively dropped — replay never applies a
// record whose checksum does not match, so mutated bytes cannot
// resurrect writes that were never made. DURABILITY.md documents the
// formats, the ack contract, and the crash matrix.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rma/internal/vmem"
)

// Errors returned by the log. Fault-injection errors wrap the vmem
// sentinels so callers test them uniformly with errors.Is.
var (
	// ErrClosed is returned by Append/Wait after Close.
	ErrClosed = errors.New("wal: log closed")
	// ErrNoLog is returned by Open when dir holds no log segments.
	ErrNoLog = errors.New("wal: no log")

	errBadOp       = errors.New("wal: unknown op kind")
	errEmptyAppend = errors.New("wal: empty append")

	errAppendFault   = fmt.Errorf("wal: append: %w", vmem.ErrFaultInjected)
	errSyncFault     = fmt.Errorf("wal: sync: %w", vmem.ErrFaultInjected)
	errTruncateFault = fmt.Errorf("wal: truncate: %w", vmem.ErrFaultInjected)
	errAllocFault    = fmt.Errorf("wal: staging buffer: %w", vmem.ErrAllocFailed)
)

// SyncPolicy selects when commit waves fsync.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs every commit wave before Wait returns: an acked
	// write survives kill -9. The default.
	SyncAlways SyncPolicy = iota
	// SyncEverySec fsyncs at most a few times per second; Wait returns
	// after the wave's write. A crash can lose the last ~second.
	SyncEverySec
	// SyncNever leaves flushing to the OS; Wait returns after the
	// wave's write. A crash can lose anything not yet flushed.
	SyncNever
)

// FaultOp names a deterministic fault-injection point (InjectFault).
type FaultOp string

const (
	// FaultAppend fails the n-th next Append at staging time.
	FaultAppend FaultOp = "append"
	// FaultSync fails the n-th next commit wave's write+fsync step.
	FaultSync FaultOp = "sync"
	// FaultRotate fails the n-th next segment rotation.
	FaultRotate FaultOp = "rotate"
	// FaultTruncate fails the n-th next segment removal in TruncateBelow.
	FaultTruncate FaultOp = "truncate"
)

// Options tunes a Log. The zero value is usable.
type Options struct {
	// SegmentBytes is the rotation threshold (default 4 MiB): a commit
	// wave that finds the active segment at or past it opens the next
	// segment first.
	SegmentBytes int
	// Stripes is the number of staging stripes (default 8). Shard i
	// stages into stripe i%Stripes, so per-shard record order in the
	// file is LSN order.
	Stripes int
	// StripeBytes is each stripe's staging capacity (default 256 KiB).
	// A writer that finds its stripe full waits for the syncer to
	// drain it; a single record larger than the stripe grows it (a
	// documented cold-path allocation).
	StripeBytes int
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SegmentBytes < segHeaderBytes+1 {
		o.SegmentBytes = segHeaderBytes + 1
	}
	if o.Stripes <= 0 {
		o.Stripes = 8
	}
	if o.StripeBytes <= 0 {
		o.StripeBytes = 256 << 10
	}
	return o
}

// Stats are the log's operation counters. Every injected or organic
// failure increments exactly one failure counter, so tests can assert
// that a fault was observed and absorbed.
type Stats struct {
	// Records counts staged records; Waves counts commit waves (the
	// write+fsync batches); Syncs counts fsyncs actually issued.
	Records, Waves, Syncs uint64
	// Rotations and Truncations count segments opened and removed.
	Rotations, Truncations uint64
	// Failure counters, one per fault point.
	AppendFailures, SyncFailures     uint64
	RotateFailures, TruncateFailures uint64
	// BytesWritten counts record bytes written to segments.
	BytesWritten uint64
	// Segments is the live segment-file count; LiveBytes their total
	// size; LastLSN the highest LSN assigned so far.
	Segments  int
	LiveBytes int64
	LastLSN   uint64
}

// segInfo describes one sealed (non-active) segment.
type segInfo struct {
	seq    uint64
	path   string
	bytes  int64
	maxLSN uint64
}

// Log is a segmented write-ahead log. Create/Open start the syncer
// goroutine; Close drains and stops it. Append/Wait are safe for
// concurrent use; Replay and TruncateBelow are recovery/maintenance
// surfaces (Replay must run before concurrent appends begin).
type Log struct {
	dir  string
	opts Options

	lsn    atomic.Uint64 // last assigned LSN
	closed atomic.Bool

	stripes []stripe

	wake   chan struct{}
	done   chan struct{}
	exited chan struct{}

	// Syncer-owned segment state (segOff is atomic only so LiveBytes
	// can read it without joining the syncer).
	f         *os.File
	segSeq    uint64
	segOff    atomic.Int64
	segMaxLSN uint64
	unsynced  bool
	lastSync  time.Time
	writeBuf  []byte
	collected []int

	// Sealed segments, oldest first; guarded by segLk (the syncer
	// appends on rotation, TruncateBelow removes a prefix).
	segLk    sync.Mutex
	segments []segInfo

	seps []int64 // from the genesis record, when still present

	records, waves, syncs            atomic.Uint64
	rotations, truncations           atomic.Uint64
	appendFailures, syncFailures     atomic.Uint64
	rotateFailures, truncateFailures atomic.Uint64
	bytesWritten                     atomic.Uint64
	faultAppend, faultSync           atomic.Int64
	faultRotate, faultTruncate       atomic.Int64
	faultAlloc                       atomic.Int64
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", seq))
}

func newLog(dir string, o Options) *Log {
	l := &Log{
		dir:    dir,
		opts:   o,
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	l.stripes = make([]stripe, o.Stripes)
	for i := range l.stripes {
		l.stripes[i].init(o.StripeBytes)
	}
	return l
}

// Create starts a fresh log in dir (created if needed; stale segments
// from an abandoned log are removed). The genesis record carries seps —
// the map's shard separators — so recovery can rebuild an equivalent
// empty map before any checkpoint exists. startLSN seeds the LSN
// counter: a log re-created under an existing checkpoint must start
// above the checkpoint's published floors or replay would skip fresh
// records.
func Create(dir string, seps []int64, startLSN uint64, o Options) (*Log, error) {
	o = o.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	old, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, s := range old {
		if err := os.Remove(s.path); err != nil {
			return nil, fmt.Errorf("wal: create: removing stale segment: %w", err)
		}
	}

	l := newLog(dir, o)
	l.lsn.Store(startLSN)
	l.seps = append([]int64(nil), seps...)

	path := segPath(dir, 1)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	buf := make([]byte, segHeaderBytes)
	copy(buf, segMagic[:])
	putLE64(buf[8:], 1)
	genesisLSN := l.lsn.Add(1)
	buf = appendRawRecord(buf, genesisLSN, genesisShard, encodeGenesis(seps))
	if _, err := f.WriteAt(buf, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	l.f = f
	l.segSeq = 1
	l.segOff.Store(int64(len(buf)))
	l.segMaxLSN = genesisLSN
	l.lastSync = time.Now()
	go l.run()
	return l, nil
}

// Open recovers the log in dir. The last segment's torn tail (a crash
// mid-write) is truncated away; a mid-log corruption conservatively
// ends the log there — the damaged segment is cut at its last intact
// record and later segments are dropped. After Open the on-disk log is
// fully valid and appends continue at the tail. Returns ErrNoLog when
// dir holds no intact segments.
func Open(dir string, o Options) (*Log, error) {
	o = o.withDefaults()
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, ErrNoLog
	}

	l := newLog(dir, o)
	keep := 0
	for i := range segs {
		s := &segs[i]
		res, err := scanSegment(s.path, s.seq)
		if err != nil {
			return nil, err
		}
		if !res.headerOK {
			// The segment never got an intact header: the log ends at
			// the previous segment. Drop this file and everything after.
			break
		}
		if i == 0 && res.seps != nil {
			l.seps = res.seps
		}
		if res.maxLSN > l.lsn.Load() {
			l.lsn.Store(res.maxLSN)
		}
		s.maxLSN = res.maxLSN
		s.bytes = res.validLen
		keep = i + 1
		if res.validLen < res.fileLen {
			// Torn or corrupt suffix: make physical = logical so appends
			// and replay agree on the tail.
			if err := os.Truncate(s.path, res.validLen); err != nil {
				return nil, fmt.Errorf("wal: open: truncating torn tail: %w", err)
			}
			break
		}
	}
	if keep == 0 {
		return nil, ErrNoLog
	}
	for _, s := range segs[keep:] {
		if err := os.Remove(s.path); err != nil {
			return nil, fmt.Errorf("wal: open: dropping segment past corruption: %w", err)
		}
	}
	if err := syncDir(dir); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}

	active := segs[keep-1]
	f, err := os.OpenFile(active.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l.f = f
	l.segSeq = active.seq
	l.segOff.Store(active.bytes)
	l.segMaxLSN = active.maxLSN
	l.segments = append(l.segments, segs[:keep-1]...)
	l.lastSync = time.Now()
	go l.run()
	return l, nil
}

// listSegments returns dir's wal-*.seg files sorted by sequence.
func listSegments(dir string) ([]segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segInfo
	for _, e := range entries {
		var seq uint64
		if n, err := fmt.Sscanf(e.Name(), "wal-%016x.seg", &seq); n != 1 || err != nil {
			continue
		}
		segs = append(segs, segInfo{seq: seq, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// scanResult is one segment's validation outcome.
type scanResult struct {
	headerOK bool
	validLen int64 // header + intact record prefix
	fileLen  int64
	maxLSN   uint64
	seps     []int64 // genesis separators, when the segment opens with one
}

// scanSegment validates path's header and record prefix.
func scanSegment(path string, wantSeq uint64) (scanResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return scanResult{}, fmt.Errorf("wal: scan: %w", err)
	}
	res := scanResult{fileLen: int64(len(data))}
	if len(data) < segHeaderBytes ||
		string(data[:8]) != string(segMagic[:]) ||
		le64(data[8:]) != wantSeq {
		return res, nil
	}
	res.headerOK = true
	off := segHeaderBytes
	first := true
	for off < len(data) {
		lsn, shard, payload, end, ok := parseRecord(data, off)
		if !ok {
			break
		}
		if first && shard == genesisShard {
			res.seps, _ = decodeGenesis(payload)
		}
		first = false
		if lsn > res.maxLSN {
			res.maxLSN = lsn
		}
		off = end
	}
	res.validLen = int64(off)
	return res, nil
}

// Seps returns the shard separators from the genesis record, or nil if
// the genesis segment has been truncated away (the map manifest is the
// source of truth then).
func (l *Log) Seps() []int64 { return l.seps }

// LastLSN returns the highest LSN assigned so far.
func (l *Log) LastLSN() uint64 { return l.lsn.Load() }

// EnsureLSNAtLeast raises the LSN counter to at least floor. Recovery
// calls it after Open when the store's persisted checkpoint floors
// exceed the highest LSN surviving in the log: once a publish has
// truncated every record-bearing sealed segment and a forced wave has
// rotated in a fresh one, the reopened log can be header-only, and
// seeding the counter from surviving records alone would hand fresh
// appends LSNs at or below the floors — records the next recovery
// would silently skip. Must run before concurrent appends begin
// (recovery time), like Replay.
func (l *Log) EnsureLSNAtLeast(floor uint64) {
	for {
		cur := l.lsn.Load()
		if cur >= floor || l.lsn.CompareAndSwap(cur, floor) {
			return
		}
	}
}

// LiveBytes returns the total on-disk size of live segments.
func (l *Log) LiveBytes() int64 {
	l.segLk.Lock()
	defer l.segLk.Unlock()
	return l.liveBytesLocked()
}

// liveBytesLocked sums the sealed segments and the active one. The
// caller holds segLk, under which rotation moves the active segment's
// bytes into segments.
func (l *Log) liveBytesLocked() int64 {
	n := l.segOff.Load()
	for _, s := range l.segments {
		n += s.bytes
	}
	return n
}

// Stats returns a snapshot of the log's counters. Segments and
// LiveBytes are read under one segLk hold, so a rotation cannot fall
// between them.
func (l *Log) Stats() Stats {
	l.segLk.Lock()
	segs, live := len(l.segments), l.liveBytesLocked()
	l.segLk.Unlock()
	return Stats{
		Records:          l.records.Load(),
		Waves:            l.waves.Load(),
		Syncs:            l.syncs.Load(),
		Rotations:        l.rotations.Load(),
		Truncations:      l.truncations.Load(),
		AppendFailures:   l.appendFailures.Load(),
		SyncFailures:     l.syncFailures.Load(),
		RotateFailures:   l.rotateFailures.Load(),
		TruncateFailures: l.truncateFailures.Load(),
		BytesWritten:     l.bytesWritten.Load(),
		Segments:         segs + 1,
		LiveBytes:        live,
		LastLSN:          l.lsn.Load(),
	}
}

// InjectFault arms deterministic failure of the n-th next operation at
// the given fault point (n=1 fails the very next one). Testing hook,
// mirroring vmem.FileRegion's matrix: every injected failure surfaces
// an error or a Stats counter and leaves the log (and the store above
// it) serving.
func (l *Log) InjectFault(op FaultOp, n int) {
	c := l.faultCounter(op)
	if c != nil {
		c.Store(int64(n))
	}
}

// InjectAllocFailure arms failure of the n-th next staging-buffer
// growth (the oversized-record cold path). Testing hook.
func (l *Log) InjectAllocFailure(n int) { l.faultAlloc.Store(int64(n)) }

func (l *Log) faultCounter(op FaultOp) *atomic.Int64 {
	switch op {
	case FaultAppend:
		return &l.faultAppend
	case FaultSync:
		return &l.faultSync
	case FaultRotate:
		return &l.faultRotate
	case FaultTruncate:
		return &l.faultTruncate
	}
	return nil
}

// faultTrip consumes one armed count; it reports true on the arming
// call's n-th next operation.
func faultTrip(c *atomic.Int64) bool {
	if c.Load() <= 0 {
		return false
	}
	return c.Add(-1) == 0
}

// Replay calls fn for every logged operation record in log order —
// which, per shard, is LSN order (shards pin to stripes and waves are
// collected in sequence). The genesis record is skipped. Replay must
// run before concurrent appends begin (recovery time); fn's ops slice
// is reused between calls.
func (l *Log) Replay(fn func(shard int, lsn uint64, ops []Op) error) error {
	l.segLk.Lock()
	paths := make([]string, 0, len(l.segments)+1)
	for _, s := range l.segments {
		paths = append(paths, s.path)
	}
	l.segLk.Unlock()
	paths = append(paths, segPath(l.dir, l.segSeq))

	var ops []Op
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		if len(data) < segHeaderBytes {
			return nil
		}
		off := segHeaderBytes
		for off < len(data) {
			lsn, shard, payload, end, ok := parseRecord(data, off)
			if !ok {
				// Conservative end of log: nothing past an invalid
				// record is replayed.
				return nil
			}
			off = end
			if shard == genesisShard {
				continue
			}
			ops = ops[:0]
			ops, ok = decodeOps(payload, ops)
			if !ok {
				return nil
			}
			if err := fn(int(shard), lsn, ops); err != nil {
				return err
			}
		}
	}
	return nil
}

// TruncateBelow removes sealed segments whose records all have
// LSN <= floor — called after a checkpoint round publishes floor as its
// recovery point, so the removed records are covered by checkpoint
// pages. The active segment is never removed. Failures (including
// injected FaultTruncate) leave the log serving with the remaining
// segments intact.
func (l *Log) TruncateBelow(floor uint64) error {
	l.segLk.Lock()
	defer l.segLk.Unlock()
	removed := false
	for len(l.segments) > 0 {
		s := l.segments[0]
		if s.maxLSN == 0 || s.maxLSN > floor {
			break
		}
		if faultTrip(&l.faultTruncate) {
			l.truncateFailures.Add(1)
			return errTruncateFault
		}
		if err := os.Remove(s.path); err != nil {
			l.truncateFailures.Add(1)
			return fmt.Errorf("wal: truncate: %w", err)
		}
		l.segments = l.segments[1:]
		l.truncations.Add(1)
		removed = true
	}
	if removed {
		if err := syncDir(l.dir); err != nil {
			l.truncateFailures.Add(1)
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	return nil
}

// Close drains staged records through one final commit wave, stops the
// syncer, and closes the active segment. Appends that began before
// Close are collected and their Waits return; appends after Close
// return ErrClosed. Idempotent.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		<-l.exited
		return nil
	}
	// Wake writers blocked on stripe space so they observe closed.
	for i := range l.stripes {
		s := &l.stripes[i]
		s.lk.Lock()
		s.cond.Broadcast()
		s.lk.Unlock()
	}
	close(l.done)
	<-l.exited
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
