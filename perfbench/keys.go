package main

import (
	"sync/atomic"

	"rma/internal/workload"
)

// mixBits is the SplitMix64 finalizer computed modulo 2^n: a bijection
// on n-bit values, so distinct indices give distinct keys, and
// unmixBits recovers the index of a key.
func mixBits(z uint64, n uint) uint64 {
	m := bitMask(n)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9 & m
	z = (z ^ z>>27) * 0x94d049bb133111eb & m
	return z ^ z>>31
}

var mixInv1, mixInv2 = modInverse(0xbf58476d1ce4e5b9), modInverse(0x94d049bb133111eb)

// unmixBits inverts mixBits(., n). An inverse modulo 2^64 is also one
// modulo 2^n, and the shifts of an n-bit value stay within n bits.
func unmixBits(z uint64, n uint) uint64 {
	m := bitMask(n)
	z = unxorshift(z, 31)
	z = z * mixInv2 & m
	z = unxorshift(z, 27)
	z = z * mixInv1 & m
	return unxorshift(z, 30)
}

func bitMask(n uint) uint64 { return ^uint64(0) >> (64 - n) }

func mix64(z uint64) uint64 { return mixBits(z, 64) }

// unxorshift inverts z ^= z >> s.
func unxorshift(z uint64, s uint) uint64 {
	x := z
	for i := s; i < 64; i += s {
		x = z ^ x>>s
	}
	return x
}

// modInverse returns the inverse of odd a modulo 2^64 (Newton's method:
// each step doubles the number of correct low bits).
func modInverse(a uint64) uint64 {
	x := a
	for range 5 {
		x *= 2 - a*x
	}
	return x
}

// keySeq is the engine-htap key sequence: runs of 2^runBits
// consecutive indices map to runs of consecutive keys, and the runs lie
// at seeded, uniformly spread positions. Run r holds the keys
// mix(r + offset)·2^runBits + [0, 2^runBits), so the sequence is
// collision-free and its inverse tells a reader which step inserted any
// key it sees.
type keySeq struct {
	offset  uint64
	runBits uint
}

func (s keySeq) key(i uint64) int64 {
	n := 64 - s.runBits
	return int64(mixBits((i>>s.runBits+s.offset)&bitMask(n), n)<<s.runBits | i&bitMask(s.runBits))
}

func (s keySeq) index(k int64) uint64 {
	n := 64 - s.runBits
	run := (unmixBits(uint64(k)>>s.runBits, n) - s.offset) & bitMask(n)
	return run<<s.runBits | uint64(k)&bitMask(s.runBits)
}

// Versioned values for the key-value workloads: the low 32 bits are
// workload.ValueFor(k) (keys stay below 2^32), the high bits count the
// key's upserts. Version 0 is exactly workload.ValueFor(k), the preload.
func valueAt(k int64, ver uint32) int64 {
	return int64(ver)<<32 | workload.ValueFor(k)&0xffffffff
}

// kvModel is what the generator knows of the key-value workloads' state.
// Each key has one owning writer, which bumps issued before sending an
// upsert and acked once the upsert is acknowledged, so any read of key k
// must return a version in [acked before the read, issued after it].
type kvModel struct {
	issued, acked []atomic.Uint32
}

func newKVModel(n int) *kvModel {
	return &kvModel{issued: make([]atomic.Uint32, n), acked: make([]atomic.Uint32, n)}
}

// check reports whether val is a legal reply for key k given the acked
// version loaded before the read (lo) and found reports a hit.
func (m *kvModel) check(k int64, lo uint32, val int64, found bool) bool {
	if !found || val&0xffffffff != workload.ValueFor(k)&0xffffffff {
		return false
	}
	ver := uint32(uint64(val) >> 32)
	return ver >= lo && ver <= m.issued[k].Load()
}
