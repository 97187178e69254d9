package main

import "time"

// winNS is the width of the windows rates are taken over: a run reports
// the median rate over its windows. On the 2-vCPU virtual machine the
// bounds were set on, a thread lost the processor for several
// milliseconds a few times a second; windows this short are mostly
// stall-free, so the median window's rate reads the system under test,
// and a change that slows most windows still moves it. Latency
// quantiles are not windowed (setLatency): a stall that hits a few
// requests is part of their tail.
const winNS = int64(100 * time.Millisecond)

// winRec is a latency recorder split into windows by sample time.
type winRec struct {
	start int64
	all   Rec // every sample, for the whole-run p999 and count
	wins  []*Rec
}

func newWinRec(start int64) *winRec { return &winRec{start: start} }

func winIndex(start, at int64) int { return int(max(at-start, 0) / winNS) }

// Record adds latency v of a sample taken at time at.
func (w *winRec) Record(at, v int64) {
	w.all.Record(v)
	i := winIndex(w.start, at)
	for len(w.wins) <= i {
		w.wins = append(w.wins, &Rec{})
	}
	w.wins[i].Record(v)
}

// Merge adds o's samples; both must share a start.
func (w *winRec) Merge(o *winRec) {
	w.all.Merge(&o.all)
	for len(w.wins) < len(o.wins) {
		w.wins = append(w.wins, &Rec{})
	}
	for i, r := range o.wins {
		w.wins[i].Merge(r)
	}
}

// Quantile is the median over blocks of each block's q-quantile, where
// a block is the shortest run of consecutive windows before end holding
// at least winMinSamples samples — one window at high rates, a few for a
// sparse operation class — so every block's p99 has ten samples beyond
// it. A trailing block short of samples is left out.
func (w *winRec) Quantile(q float64, end int64) float64 {
	var qs []float64
	var block Rec
	for i, r := range w.wins {
		if w.start+int64(i+1)*winNS > end {
			break
		}
		block.Merge(r)
		if block.Count() >= winMinSamples {
			qs = append(qs, block.Quantile(q))
			block = Rec{}
		}
	}
	return median(qs)
}

// winMinSamples is the fewest samples a block of windows needs.
const winMinSamples = 1000

// winCount counts completed operations per window.
type winCount struct {
	start int64
	n     []int64
}

func newWinCount(start int64) *winCount { return &winCount{start: start} }

func (c *winCount) Add(at, n int64) {
	i := winIndex(c.start, at)
	for len(c.n) <= i {
		c.n = append(c.n, 0)
	}
	c.n[i] += n
}

func (c *winCount) Merge(o *winCount) {
	for len(c.n) < len(o.n) {
		c.n = append(c.n, 0)
	}
	for i, n := range o.n {
		c.n[i] += n
	}
}

// Rate is the median per-second rate over the full windows before end.
func (c *winCount) Rate(end int64) float64 {
	var rs []float64
	for i := 0; c.start+int64(i+1)*winNS <= end; i++ {
		n := int64(0)
		if i < len(c.n) {
			n = c.n[i]
		}
		rs = append(rs, float64(n)/(float64(winNS)/1e9))
	}
	return median(rs)
}
