package main

import (
	"io"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"rma/internal/resp"
	"rma/internal/workload"
)

// TestRecQuantilesMatchExactSort checks every reported quantile against
// the nearest-rank quantile of the sorted samples: within 1%, across
// several value ranges and shapes.
func TestRecQuantilesMatchExactSort(t *testing.T) {
	rng := workload.NewRNG(7)
	shapes := map[string]func() int64{
		"uniform-small": func() int64 { return int64(rng.Uint64n(300)) },
		"uniform-wide":  func() int64 { return int64(rng.Uint64n(1 << 40)) },
		"lognormal": func() int64 {
			return int64(math.Exp(10 + 2*math.Sqrt(-2*math.Log(1-rng.Float64()))*math.Cos(2*math.Pi*rng.Float64())))
		},
		"bimodal": func() int64 {
			if rng.Uint64n(100) < 3 {
				return 5_000_000 + int64(rng.Uint64n(1_000_000))
			}
			return 20_000 + int64(rng.Uint64n(2_000))
		},
	}
	for name, gen := range shapes {
		var r Rec
		xs := make([]int64, 50_001)
		for i := range xs {
			xs[i] = gen()
			r.Record(xs[i])
		}
		slices.Sort(xs)
		for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := max(int(math.Ceil(q*float64(len(xs)))), 1)
			exact := float64(xs[rank-1])
			got := r.Quantile(q)
			if math.Abs(got-exact) > 0.01*exact+0.5 {
				t.Errorf("%s q=%v: got %v, exact %v", name, q, got, exact)
			}
		}
		if r.Count() != uint64(len(xs)) {
			t.Errorf("%s: count %d, want %d", name, r.Count(), len(xs))
		}
	}
}

func TestRecMerge(t *testing.T) {
	var a, b, all Rec
	for i := int64(1); i <= 1000; i++ {
		if i%3 == 0 {
			a.Record(i * 1000)
		} else {
			b.Record(i * 1000)
		}
		all.Record(i * 1000)
	}
	a.Merge(&b)
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Errorf("q=%v: merged %v, direct %v", q, a.Quantile(q), all.Quantile(q))
		}
	}
	if a.Mean() != all.Mean() || a.Count() != all.Count() {
		t.Errorf("merged mean/count %v/%d, direct %v/%d", a.Mean(), a.Count(), all.Mean(), all.Count())
	}
}

// TestSelfTimes pins the self-time arithmetic: a span's self time is its
// duration minus the union of its children's intervals clipped to it —
// overlapping children count once, parts outside the parent not at all.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: spanClientRequest, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanRespEncode, Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: spanNetWait, Start: 10, End: 90},
		{ID: 4, Parent: 1, Name: spanRespDecode, Start: 85, End: 95}, // overlaps net.wait by 5
		{ID: 5, Parent: 3, Name: spanServerService, Start: 30, End: 50},
		{ID: 6, Parent: 3, Name: spanServerService, Start: 40, End: 60},  // overlaps the first by 10
		{ID: 7, Parent: 3, Name: spanServerService, Start: 80, End: 120}, // runs past its parent
		{ID: 8, Name: spanClientRequest, Start: 200, End: 250},           // leaf root
	}
	st := SelfTimes(spans)
	check := func(name int, count int, total, self int64) {
		t.Helper()
		s := st[name]
		if s.Count != count || s.TotalNS != total || s.SelfNS != self {
			t.Errorf("%s: count %d total %d self %d, want %d %d %d",
				spanNames[name], s.Count, s.TotalNS, s.SelfNS, count, total, self)
		}
	}
	check(spanClientRequest, 2, 150, 5+50) // 100 - union[0,95]; 50 - 0
	check(spanNetWait, 1, 80, 80-30-10)    // children cover [30,60] and [80,90]
	check(spanServerService, 3, 20+20+40, 80)
	check(spanRespEncode, 1, 10, 10)
	check(spanRespDecode, 1, 10, 10)
}

func TestSpanBufCapAndIDs(t *testing.T) {
	tr := &Tracer{}
	a, b := tr.Buf(), tr.Buf()
	ida := a.Begin(spanShardFind, 0, 5)
	idb := b.Add(spanShardFind, ida, 6, 7)
	a.End(ida, 9)
	if ida == idb {
		t.Fatalf("span IDs of two buffers collide: %d", ida)
	}
	spans, dropped := tr.Spans()
	if len(spans) != 2 || dropped != 0 || spans[0].End != 9 || spans[1].Parent != ida {
		t.Fatalf("spans %+v dropped %d", spans, dropped)
	}
	for range maxSpansPerBuf {
		a.Add(spanShardFind, 0, 0, 1)
	}
	if _, dropped := tr.Spans(); dropped != 1 {
		t.Fatalf("dropped %d past the cap, want 1", dropped)
	}
	var nilTracer *Tracer
	if buf := nilTracer.Buf(); buf.Begin(spanShardFind, 0, 1) != 0 {
		t.Fatal("a nil tracer recorded a span")
	}
}

// TestOpenLoopChargesStallsToLaterRequests runs the open loop against a
// fake server that stalls once. Requests that fell due during the stall
// could only be sent, or answered, after it; timed from their intended
// send they must show the stall, where timing from the actual send
// would hide it (coordinated omission).
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	const (
		rate    = 2000.0 // per second: a request every 500us on average
		stallAt = 100    // the fake server stalls before its 100th reply
		stall   = 60 * time.Millisecond
	)
	cli, srv := net.Pipe() // synchronous: a stalled reader also blocks the writer
	defer cli.Close()
	stallStart := make(chan int64, 1)
	go func() {
		defer srv.Close()
		rd, w := resp.NewReader(srv), resp.NewWriter(srv)
		for n := 0; ; n++ {
			if _, err := rd.ReadCommand(); err != nil {
				return
			}
			if n == stallAt {
				stallStart <- now()
				time.Sleep(stall)
			}
			w.SimpleString("OK")
			if rd.Buffered() == 0 {
				if err := w.Flush(); err != nil {
					return
				}
			}
		}
	}()
	type sample struct{ due, lat int64 }
	var got []sample
	ol := &openLoop{
		rate:   rate,
		start:  now(),
		end:    now() + int64(400*time.Millisecond),
		rng:    workload.NewRNG(3),
		next:   func(r *olReq) { r.key = 1 },
		encode: func(w *resp.Writer, r *olReq) { w.Command("GET", r.key) },
		check: func(rd *resp.Reader, r *olReq) (bool, error) {
			rep, err := rd.ReadReply()
			got = append(got, sample{r.due, now() - r.due})
			return err == nil && rep.Kind == resp.SimpleString, err
		},
	}
	res := ol.run(resp.NewWriter(cli), resp.NewReader(cli), nil)
	if res.err != nil && res.err != io.EOF {
		t.Fatal(res.err)
	}
	if res.failed != 0 || res.ops != int64(len(got)) || len(got) < 2*stallAt {
		t.Fatalf("ops %d failed %d samples %d", res.ops, res.failed, len(got))
	}
	s0 := <-stallStart
	end := s0 + int64(stall)
	charged := 0
	for _, s := range got {
		// Due inside the stall: the reply cannot precede its end.
		if s.due >= s0 && s.due < end {
			charged++
			if want := end - s.due; s.lat < want {
				t.Errorf("request due %dus into the stall: latency %dus, want at least %dus",
					(s.due-s0)/1e3, s.lat/1e3, want/1e3)
			}
		}
	}
	if charged < 20 {
		t.Fatalf("only %d requests fell due during the stall", charged)
	}
	if p := res.read.all.Quantile(1); p < float64(stall)*0.9 {
		t.Errorf("max latency %vus, want at least the stall", p/1e3)
	}
}

func TestKeySeqIsABijection(t *testing.T) {
	for _, bits := range []uint{0, 4, htapRunBits} {
		s := keySeq{offset: mix64(42), runBits: bits}
		seen := map[int64]bool{}
		for i := uint64(0); i < 100_000; i++ {
			k := s.key(i)
			if seen[k] {
				t.Fatalf("runBits %d: key %d repeats at index %d", bits, k, i)
			}
			seen[k] = true
			if s.index(k) != i {
				t.Fatalf("runBits %d: index(key(%d)) = %d", bits, i, s.index(k))
			}
			if i%(1<<bits) != 0 && k != s.key(i-1)+1 {
				t.Fatalf("runBits %d: key(%d) = %d does not follow key(%d) = %d", bits, i, k, i-1, s.key(i-1))
			}
		}
	}
}

func TestKVModelCheck(t *testing.T) {
	m := newKVModel(8)
	k := int64(5)
	if !m.check(k, 0, workload.ValueFor(k), true) {
		t.Fatal("preloaded value rejected")
	}
	m.issued[k].Store(3)
	m.acked[k].Store(2)
	for ver, want := range map[uint32]bool{1: false, 2: true, 3: true, 4: false} {
		if got := m.check(k, 2, valueAt(k, ver), true); got != want {
			t.Errorf("version %d: check %v, want %v", ver, got, want)
		}
	}
	if m.check(k, 0, valueAt(k+1, 2), true) || m.check(k, 0, valueAt(k, 2), false) {
		t.Error("a foreign value or a miss passed")
	}
}

// TestWinRecBlocks pins the windowed quantile: windows merge into blocks
// of at least winMinSamples samples, the median block quantile is
// reported, and a stalled window among quiet ones does not move it.
func TestWinRecBlocks(t *testing.T) {
	w := newWinRec(0)
	const windows = 9
	for i := range int64(windows) {
		v := int64(1000)
		if i == 4 {
			v = 1_000_000 // one stalled window
		}
		for j := range int64(winMinSamples) {
			w.Record(i*winNS+j, v)
		}
	}
	end := int64(windows) * winNS
	if got := w.Quantile(0.99, end); math.Abs(got-1000) > 10 {
		t.Errorf("median window p99 %v, want 1000", got)
	}
	if got := w.all.Quantile(0.99); got < 1_000_000*0.99 {
		t.Errorf("whole-run p99 %v, want the stall", got)
	}
	// Half-full windows pair up into blocks; the trailing partial block
	// is left out.
	sparse := newWinRec(0)
	for i := range int64(7) {
		for j := range int64(winMinSamples / 2) {
			sparse.Record(i*winNS+j, 10+i)
		}
	}
	if got := sparse.Quantile(1, 7*winNS); got != 13 {
		t.Errorf("sparse windows: median block max %v, want 13 (blocks {10,11}, {12,13}, {14,15})", got)
	}
}

func TestWinCountRate(t *testing.T) {
	c := newWinCount(0)
	for i := range int64(5) {
		c.Add(i*winNS, 100*(i+1))
	}
	c.Add(5*winNS, 1) // partial window past end
	if got, want := c.Rate(5*winNS), 300/(float64(winNS)/1e9); got != want {
		t.Errorf("rate %v, want %v", got, want)
	}
}
