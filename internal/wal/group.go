package wal

import (
	"os"
	"sync"
	"time"
)

// The group-commit core. Writers stage encoded records into one of a
// small number of stripes (shard i always stages into stripe
// i%Stripes), assign the record its LSN while the stripe lock is held,
// and block in Wait on the stripe's condition variable. The syncer
// goroutine collects every non-empty stripe's staged bytes under the
// stripe locks, concatenates them, and commits the wave with one
// write and — per SyncPolicy — one fsync, then publishes the wave's
// durability (and error, if any) back to the stripes and broadcasts.
//
// Correctness notes:
//
//   - LSNs come from one atomic counter read under the stripe lock, and
//     a stripe's staged bytes are collected in staging order, so the
//     file order of any one stripe's records — hence of any one
//     shard's records — is LSN order. Replay can therefore apply
//     records in file order and filter per shard by checkpoint floor.
//   - A wave's tickets are (stripe, collection sequence) pairs: a
//     record staged now belongs to collection seq+1, and Wait returns
//     once the stripe's durable sequence reaches it. Wave errors are
//     kept in a small per-stripe ring so every waiter of a failed wave
//     observes its error.

// waveErrRing bounds how many past wave outcomes a stripe remembers
// exactly. A waiter that sleeps through more collections than this
// reads a recycled slot and falls back to the stripe's failed-wave
// watermark: failures are recorded monotonically in failedWave, so a
// ticket at or below the watermark conservatively reports the recorded
// error (its own wave may have succeeded — acceptable, the caller just
// declines to ack), and a ticket above it genuinely succeeded. Success
// is never reported for a failed wave: a WriteAt-failed wave's bytes
// were never written, so acking it would breach the zero-lost-acks
// contract.
const waveErrRing = 64

type waveErr struct {
	wave uint64
	err  error
}

// stripe is one staging lane. All fields are guarded by lk; cond
// signals both "space freed by a collection" and "durability advanced".
type stripe struct {
	lk     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	maxLSN uint64 // highest LSN staged in buf
	seq    uint64 // collections taken from this stripe
	dur    uint64 // collections made durable
	errs   [waveErrRing]waveErr

	// Failed-wave watermark: the highest collection whose wave failed,
	// and that wave's error. Monotone, so failedWave < t.wave proves
	// t's wave succeeded even after its ring slot is recycled.
	failedWave uint64
	failedErr  error
}

func (s *stripe) init(capBytes int) {
	s.cond = sync.NewCond(&s.lk)
	s.buf = make([]byte, 0, capBytes)
}

// Ticket identifies a staged record's commit wave; pass it to Wait.
// The zero Ticket is valid and waits for nothing (a no-op handle for
// paths that did not log).
type Ticket struct {
	st   *stripe
	wave uint64
	lsn  uint64
}

// Ok reports whether the ticket refers to a staged record.
func (t Ticket) Ok() bool { return t.st != nil }

// LSN returns the staged record's log sequence number (0 for the zero
// Ticket).
func (t Ticket) LSN() uint64 { return t.lsn }

// Append assigns the next LSN and stages one record holding ops for
// shard. It returns a Ticket for Wait; the record becomes durable with
// its commit wave. The caller holds the shard's lock, which makes the
// LSN/engine-application order exact per shard (see CONCURRENCY.md).
// A full stripe waits for the syncer to drain it; a record larger than
// the stripe grows it once (documented cold path).
//
//rma:noalloc
func (l *Log) Append(shard int, ops []Op) (Ticket, error) {
	if len(ops) == 0 {
		return Ticket{}, errEmptyAppend
	}
	n := opsBytes(ops)
	if n < 0 {
		return Ticket{}, errBadOp
	}
	need := recordHeaderBytes + n
	s := &l.stripes[uint(shard)%uint(len(l.stripes))]
	s.lk.Lock()
	if l.closed.Load() {
		s.lk.Unlock()
		return Ticket{}, ErrClosed
	}
	if faultTrip(&l.faultAppend) {
		s.lk.Unlock()
		l.appendFailures.Add(1)
		return Ticket{}, errAppendFault
	}
	for len(s.buf)+need > cap(s.buf) {
		if len(s.buf) == 0 {
			// Empty and still too small: a record larger than the
			// stripe. Grow once and carry on.
			if err := l.growStripe(s, need); err != nil { //rma:alloc-ok oversized-record growth, documented cold path
				s.lk.Unlock()
				l.appendFailures.Add(1)
				return Ticket{}, err
			}
			continue
		}
		l.nudge()
		s.cond.Wait()
		if l.closed.Load() {
			s.lk.Unlock()
			return Ticket{}, ErrClosed
		}
	}
	lsn := l.lsn.Add(1)
	s.buf = appendOpsRecord(s.buf, lsn, uint32(shard), ops) //rma:cap-ok capacity ensured by the staging loop above
	s.maxLSN = lsn
	t := Ticket{st: s, wave: s.seq + 1, lsn: lsn}
	s.lk.Unlock()
	l.records.Add(1)
	l.nudge()
	return t, nil
}

// growStripe replaces s.buf (empty) with one of at least need bytes.
func (l *Log) growStripe(s *stripe, need int) error {
	if faultTrip(&l.faultAlloc) {
		return errAllocFault
	}
	s.buf = make([]byte, 0, need)
	return nil
}

// Wait blocks until t's commit wave has been committed per the sync
// policy (written and, under SyncAlways, fsynced) and returns the
// wave's outcome. The zero Ticket returns nil immediately.
func (l *Log) Wait(t Ticket) error {
	if t.st == nil {
		return nil
	}
	s := t.st
	s.lk.Lock()
	for s.dur < t.wave {
		s.cond.Wait()
	}
	e := s.errs[t.wave%waveErrRing]
	var err error
	switch {
	case e.wave == t.wave:
		err = e.err
	case t.wave <= s.failedWave:
		// The slot was recycled by 64+ later collections and a wave at
		// or after t's failed since: t's own outcome is unknowable, so
		// report the recorded failure rather than risk acking a write
		// whose bytes never reached the log (see waveErrRing).
		err = s.failedErr
	}
	s.lk.Unlock()
	return err
}

// nudge wakes the syncer (coalescing; a pending wakeup is enough).
func (l *Log) nudge() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// run is the syncer goroutine: one commit wave per wakeup, a periodic
// fsync under SyncEverySec, and a final drain on Close.
func (l *Log) run() {
	defer close(l.exited)
	var tick <-chan time.Time
	if l.opts.Sync == SyncEverySec {
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-l.wake:
			l.commitWave(false)
		case <-tick:
			l.commitWave(true)
		case <-l.done:
			l.commitWave(true)
			l.f.Sync()
			l.f.Close()
			return
		}
	}
}

// commitWave rotates if the active segment is full, collects every
// non-empty stripe, writes the concatenation with one write, fsyncs
// per policy (force makes SyncEverySec sync now), and publishes the
// wave outcome back to the collected stripes.
func (l *Log) commitWave(force bool) {
	if l.segOff.Load() >= int64(l.opts.SegmentBytes) {
		l.rotate()
	}

	buf := l.writeBuf[:0]
	l.collected = l.collected[:0]
	var waveMax uint64
	for i := range l.stripes {
		s := &l.stripes[i]
		s.lk.Lock()
		if len(s.buf) > 0 {
			buf = append(buf, s.buf...)
			if s.maxLSN > waveMax {
				waveMax = s.maxLSN
			}
			s.buf = s.buf[:0]
			s.maxLSN = 0
			s.seq++
			l.collected = append(l.collected, i)
			s.cond.Broadcast() // space freed
		}
		s.lk.Unlock()
	}
	l.writeBuf = buf
	if len(l.collected) == 0 {
		if force && l.unsynced {
			l.syncFile()
		}
		return
	}

	var werr error
	switch {
	case faultTrip(&l.faultSync):
		werr = errSyncFault
		l.syncFailures.Add(1)
	default:
		if _, err := l.f.WriteAt(buf, l.segOff.Load()); err != nil {
			// The write offset does not advance: a later successful
			// wave overwrites whatever partial bytes landed, so the
			// failed wave cannot leave mid-log garbage.
			werr = err
			l.syncFailures.Add(1)
		} else {
			l.segOff.Add(int64(len(buf)))
			l.bytesWritten.Add(uint64(len(buf)))
			if waveMax > l.segMaxLSN {
				l.segMaxLSN = waveMax
			}
			l.unsynced = true
			if l.opts.Sync == SyncAlways || (l.opts.Sync == SyncEverySec && (force || time.Since(l.lastSync) >= time.Second)) {
				werr = l.syncFile()
			}
		}
	}
	l.waves.Add(1)

	for _, i := range l.collected {
		s := &l.stripes[i]
		s.lk.Lock()
		s.dur = s.seq
		s.errs[s.seq%waveErrRing] = waveErr{wave: s.seq, err: werr}
		if werr != nil {
			s.failedWave, s.failedErr = s.seq, werr
		}
		s.cond.Broadcast()
		s.lk.Unlock()
	}
}

// syncFile fsyncs the active segment, counting the outcome.
func (l *Log) syncFile() error {
	if err := l.f.Sync(); err != nil {
		l.syncFailures.Add(1)
		return err
	}
	l.syncs.Add(1)
	l.unsynced = false
	l.lastSync = time.Now()
	return nil
}

// rotate seals the active segment and opens the next one. Any failure
// (including injected FaultRotate) counts, keeps the current segment
// active — it simply grows past the threshold — and the next wave
// retries.
func (l *Log) rotate() {
	if faultTrip(&l.faultRotate) {
		l.rotateFailures.Add(1)
		return
	}
	seq := l.segSeq + 1
	path := segPath(l.dir, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		l.rotateFailures.Add(1)
		return
	}
	var hdr [segHeaderBytes]byte
	copy(hdr[:], segMagic[:])
	putLE64(hdr[8:], seq)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		os.Remove(path)
		l.rotateFailures.Add(1)
		return
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		l.rotateFailures.Add(1)
		return
	}
	// Seal the old segment: flush it fully before it becomes immutable.
	if l.unsynced {
		if l.syncFile() != nil {
			f.Close()
			os.Remove(path)
			return
		}
	}
	old := segInfo{
		seq:    l.segSeq,
		path:   segPath(l.dir, l.segSeq),
		bytes:  l.segOff.Load(),
		maxLSN: l.segMaxLSN,
	}
	l.f.Close()
	l.segLk.Lock()
	l.segments = append(l.segments, old)
	l.segOff.Store(segHeaderBytes)
	l.segLk.Unlock()
	l.f = f
	l.segSeq = seq
	l.segMaxLSN = 0
	if err := syncDir(l.dir); err != nil {
		l.rotateFailures.Add(1)
	}
	l.rotations.Add(1)
}
