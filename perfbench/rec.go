package main

import (
	"math"
	"math/bits"
)

// recSubBits sets the recorder's resolution: every power-of-two range
// of values is split into 2^recSubBits linear buckets, so a bucket is at
// most 1/128 of its lower edge wide and its midpoint lies within 0.4% of
// any value in it. Values below 2^recSubBits are exact.
const recSubBits = 7

const (
	recSub     = 1 << recSubBits
	recBuckets = (64 - recSubBits + 1) * recSub
)

// Rec is a log-linear latency histogram with bounded relative error.
// It holds every sample's bucket, not the sample, so hours of samples
// fit in a fixed 64 KiB; use one per goroutine and Merge them.
type Rec struct {
	counts [recBuckets]uint64
	n      uint64
	sum    float64
	max    int64
}

func recIndex(v uint64) int {
	if v < recSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - recSubBits // >= 0
	return (exp+1)*recSub + int(v>>uint(exp)) - recSub
}

// recValue returns the midpoint of bucket i.
func recValue(i int) float64 {
	if i < recSub {
		return float64(i)
	}
	exp := i/recSub - 1
	lo := uint64(i%recSub+recSub) << uint(exp)
	return float64(lo) + float64(uint64(1)<<uint(exp))/2 - 0.5
}

// Record adds one sample (negative samples count as 0).
func (r *Rec) Record(v int64) {
	if v < 0 {
		v = 0
	}
	r.counts[recIndex(uint64(v))]++
	r.n++
	r.sum += float64(v)
	if v > r.max {
		r.max = v
	}
}

// Merge adds every sample of o.
func (r *Rec) Merge(o *Rec) {
	for i, c := range o.counts {
		r.counts[i] += c
	}
	r.n += o.n
	r.sum += o.sum
	r.max = max(r.max, o.max)
}

// Count is the number of samples.
func (r *Rec) Count() uint64 { return r.n }

// Mean is the arithmetic mean of the samples (0 when empty).
func (r *Rec) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Quantile returns the nearest-rank q-quantile: the smallest recorded
// value with at least ceil(q*n) samples at or below it, reported as its
// bucket's midpoint (0 when empty).
func (r *Rec) Quantile(q float64) float64 {
	if r.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(r.n)))
	rank = min(max(rank, 1), r.n)
	var seen uint64
	for i, c := range r.counts {
		seen += c
		if seen >= rank {
			return recValue(i)
		}
	}
	return float64(r.max)
}
