package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"time"
)

// base is the zero of every timestamp the benchmark takes: monotonic
// nanoseconds since start-up, cheap to store and subtract.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

// Span names. Spans wrap the benchmark's calls into each module's
// public functions (and the server's connection I/O); a span's self
// time is its duration minus the part of it its children cover.
const (
	spanClientRequest = iota // resp-serve: one request, encode to decoded reply
	spanRespEncode           // client-side RESP encode of one command
	spanNetWait              // flush of the command until reply bytes arrive
	spanServerService        // server: a Read returning until its next Write
	spanRespDecode           // client-side RESP decode of one reply
	spanClientScan           // resp-serve: one SCAN round trip
	spanWriteStep            // engine-htap: one insert + delete step
	spanReadCycle            // engine-htap: one Find, GetBatch, ScanRange cycle
	spanShardInsert
	spanShardDelete
	spanShardFind
	spanShardGetBatch
	spanShardScan
	spanShardApplyBatch
	spanClientOp  // wal-upsert: one upsert or read, generator included
	spanOpen      // wal-upsert: OpenSharded over the closed store
	spanVerifyAll // wal-upsert: full verification scan after recovery
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.request", "resp.encode", "net.wait", "server.service", "resp.decode",
	"client.scan", "htap.write_step", "htap.read_cycle",
	"shard.insert", "shard.delete", "shard.find", "shard.getbatch", "shard.scan",
	"shard.applybatch", "wal.client_op", "recover.open", "recover.verify",
}

// Span is one timed interval. IDs are unique across buffers; Parent is
// 0 for a root.
type Span struct {
	ID, Parent int64
	Name       int
	Start, End int64
}

// maxSpansPerBuf bounds the memory a traced run keeps per goroutine;
// spans past it are dropped (and counted).
const maxSpansPerBuf = 1 << 17

// Tracer hands each goroutine its own span buffer, so recording needs
// no lock. A nil *Tracer records nothing.
type Tracer struct {
	bufs []*SpanBuf
}

// SpanBuf is one goroutine's spans. Not safe for concurrent use.
type SpanBuf struct {
	id      int64
	spans   []Span
	dropped int
}

// Buf returns a new buffer. Call before the goroutines start.
func (t *Tracer) Buf() *SpanBuf {
	if t == nil {
		return nil
	}
	b := &SpanBuf{id: int64(len(t.bufs)+1) << 40}
	t.bufs = append(t.bufs, b)
	return b
}

// Begin opens a span and returns its ID (0 for a nil buffer).
func (b *SpanBuf) Begin(name int, parent int64, start int64) int64 {
	if b == nil {
		return 0
	}
	if len(b.spans) >= maxSpansPerBuf {
		b.dropped++
		return 0
	}
	b.id++
	b.spans = append(b.spans, Span{ID: b.id, Parent: parent, Name: name, Start: start, End: start})
	return b.id
}

// End closes span id at end. IDs of dropped spans are ignored.
func (b *SpanBuf) End(id int64, end int64) {
	if b == nil || id == 0 {
		return
	}
	i := int(id&(1<<40-1)) - 1
	b.spans[i].End = end
}

// Add records a finished span.
func (b *SpanBuf) Add(name int, parent int64, start, end int64) int64 {
	id := b.Begin(name, parent, start)
	b.End(id, end)
	return id
}

// Spans returns every recorded span and the number dropped.
func (t *Tracer) Spans() ([]Span, int) {
	var all []Span
	dropped := 0
	for _, b := range t.bufs {
		all = append(all, b.spans...)
		dropped += b.dropped
	}
	return all, dropped
}

// SelfTime is the per-name aggregate of span durations and self times.
type SelfTime struct {
	Count   int
	TotalNS int64
	SelfNS  int64
}

// SelfTimes computes, per span name, the total duration and the self
// time: each span's duration minus the length of the union of its
// children's intervals, clipped to the span.
func SelfTimes(spans []Span) [numSpanNames]SelfTime {
	children := make(map[int64][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out [numSpanNames]SelfTime
	for _, s := range spans {
		d := s.End - s.Start
		cover := coverage(s.Start, s.End, children[s.ID])
		st := &out[s.Name]
		st.Count++
		st.TotalNS += d
		st.SelfNS += d - cover
	}
	return out
}

// coverage is the length of the union of ivs clipped to [lo, hi].
func coverage(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// WriteSpans writes every span as one "name id parent start end" line.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, "%s %d %d %d %d\n", spanNames[s.Name], s.ID, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
