package exp

import (
	"runtime"
	"time"

	"rma/internal/core"
	"rma/internal/workload"
)

const maxInt64 = 1<<63 - 1

// HotpathResult is one measured series of the hotpath experiment:
// machine-readable so cmd/rmabench can emit a BENCH_hotpath.json
// artifact and successive PRs can be held to the recorded trajectory.
type HotpathResult struct {
	Series    string `json:"series"` // e.g. "insert-uniform"
	Layout    string `json:"layout"` // "clustered" | "interleaved"
	Rebalance string `json:"rebal"`  // "rewired" | "twopass" | "sync" | "async"
	// Index and Size are recorded by the lookup experiment: the segment
	// index kind behind the measured reads and the fixture cardinality
	// of the layout × size matrix.
	Index         string  `json:"index,omitempty"`
	Size          int     `json:"size,omitempty"`
	Ops           int     `json:"ops"` // operations measured
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	ElementCopies uint64  `json:"element_copies"` // total, from core.Stats
	PageSwaps     uint64  `json:"page_swaps"`     // total, from core.Stats
	// Per-operation latency quantiles, recorded only by the putasync
	// experiment (the tail the async rebalancer exists to shrink).
	P50Ns float64 `json:"p50_ns,omitempty"`
	P99Ns float64 `json:"p99_ns,omitempty"`
	// DeferredWindows/MaintenanceRuns attribute how much rebalance work
	// left the write path (putasync only).
	DeferredWindows uint64 `json:"deferred_windows,omitempty"`
	MaintenanceRuns uint64 `json:"maintenance_runs,omitempty"`
	// Seqlock read-path accounting, recorded by the shards experiment's
	// racing-reader series (getrace): accepted optimistic reads,
	// discarded attempts, and locked-path rescues.
	LockFreeReads uint64 `json:"lock_free_reads,omitempty"`
	ReadRetries   uint64 `json:"read_retries,omitempty"`
	ReadFallbacks uint64 `json:"read_fallbacks,omitempty"`
	// Serving-layer accounting, recorded by the serve experiment: the
	// closed-loop pool's aggregate throughput and extreme tail per op
	// class (P999Ns extends the P50/P99 pair above), the client count
	// behind it, and error replies observed on the wire.
	P999Ns    float64 `json:"p999_ns,omitempty"`
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	Errors    uint64  `json:"errors,omitempty"`
	Clients   int     `json:"clients,omitempty"`
}

// hotpathConfigs enumerates the four layout x rebalance corners the
// hot-path overhaul targets.
func hotpathConfigs() []struct {
	layout, rebal string
	cfg           core.Config
} {
	var out []struct {
		layout, rebal string
		cfg           core.Config
	}
	for _, lay := range []struct {
		name string
		l    core.Layout
	}{{"clustered", core.LayoutClustered}, {"interleaved", core.LayoutInterleaved}} {
		for _, rb := range []struct {
			name string
			m    core.RebalanceMode
		}{{"rewired", core.RebalanceRewired}, {"twopass", core.RebalanceTwoPass}} {
			cfg := core.DefaultConfig()
			cfg.Adaptive = core.AdaptiveOff
			cfg.Layout = lay.l
			cfg.Rebalance = rb.m
			out = append(out, struct {
				layout, rebal string
				cfg           core.Config
			}{lay.name, rb.name, cfg})
		}
	}
	return out
}

// measure runs f over ops operations and returns wall time per op and
// heap allocations per op (mallocs delta, GC-independent).
func measure(ops int, f func()) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	if ops <= 0 {
		return 0, 0
	}
	return float64(d.Nanoseconds()) / float64(ops),
		float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// Hotpath measures the four hot paths this repo's perf trajectory tracks —
// insert (uniform and Zipf), point lookup, and 1% range scans — on every
// layout x rebalance-mode corner, and returns the machine-readable series.
// It also prints a TSV block like the figure experiments do.
func Hotpath(p Params) []HotpathResult {
	p.printf("## hotpath: insert/lookup/scan trajectory, N=%d\n", p.N)
	p.printf("# series\tlayout\trebal\tns/op\tallocs/op\telt.copies\tpage.swaps\n")

	var results []HotpathResult
	record := func(series, layout, rebal string, ops int, ns, allocs float64, st core.Stats) {
		r := HotpathResult{
			Series: series, Layout: layout, Rebalance: rebal,
			Ops: ops, NsPerOp: ns, AllocsPerOp: allocs,
			ElementCopies: st.ElementCopies, PageSwaps: st.PageSwaps,
		}
		results = append(results, r)
		p.printf("%s\t%s\t%s\t%.1f\t%.3f\t%d\t%d\n",
			series, layout, rebal, ns, allocs, st.ElementCopies, st.PageSwaps)
	}

	uniform := workload.Keys(workload.NewUniform(p.Seed, 0), p.N)
	zipf := workload.Keys(workload.NewZipf(p.Seed+1, 0.99, uint64(p.N)*8, true), p.N)

	for _, c := range hotpathConfigs() {
		// Insert, uniform keys.
		a := newCore(c.cfg)
		ns, allocs := measure(p.N, func() {
			for _, k := range uniform {
				if err := a.Insert(k, workload.ValueFor(k)); err != nil {
					panic(err)
				}
			}
		})
		record("insert-uniform", c.layout, c.rebal, p.N, ns, allocs, a.Stats())

		// Insert, Zipf-skewed keys (hammered regions stress rebalances).
		za := newCore(c.cfg)
		ns, allocs = measure(p.N, func() {
			for _, k := range zipf {
				if err := za.Insert(k, workload.ValueFor(k)); err != nil {
					panic(err)
				}
			}
		})
		record("insert-zipf", c.layout, c.rebal, p.N, ns, allocs, za.Stats())

		// Point lookups against the uniform-loaded array.
		rng := workload.NewRNG(p.Seed + 7)
		nLookups := p.N / 2
		base := a.Stats()
		var sink int64
		ns, allocs = measure(nLookups, func() {
			for i := 0; i < nLookups; i++ {
				v, _ := a.Find(uniform[rng.Uint64n(uint64(len(uniform)))])
				sink += v
			}
		})
		st := a.Stats()
		st.ElementCopies -= base.ElementCopies
		st.PageSwaps -= base.PageSwaps
		record("lookup", c.layout, c.rebal, nLookups, ns, allocs, st)

		// 1% range scans: ops counted as elements touched. Keys are
		// uniform over the non-negative 63-bit space, so a 1% key span
		// covers ~1% of the stored elements.
		span := int64((uint64(1) << 63) / 100)
		nScans := 64
		scanned := 0
		base = a.Stats()
		ns, allocs = measure(1, func() {
			for i := 0; i < nScans; i++ {
				lo := uniform[rng.Uint64n(uint64(len(uniform)))]
				hi := lo + span
				if hi < lo {
					hi = maxInt64
				}
				cnt, s := a.Sum(lo, hi)
				sink += s
				scanned += cnt
			}
		})
		if scanned > 0 {
			ns = ns / float64(scanned)
			allocs = allocs / float64(scanned)
		}
		st = a.Stats()
		st.ElementCopies -= base.ElementCopies
		st.PageSwaps -= base.PageSwaps
		record("scan-1pct", c.layout, c.rebal, scanned, ns, allocs, st)
		_ = sink
	}
	return results
}

// newCore builds a bare core.Array, panicking on config errors (the
// hotpath configs are statically valid).
func newCore(cfg core.Config) *core.Array {
	a, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}
