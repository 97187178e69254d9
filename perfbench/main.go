// Command perfbench is the repository's benchmark: three workloads that
// together cross every layer of the serving stack (RESP server, sharded
// map, rewired PMA engine, WAL and checkpoints), each printing every
// end-to-end metric by name and unit, or with -trace 1 the per-layer
// metrics, span self times and the tracing overhead.
//
//	go build -o perfbench . && ./perfbench -workload engine-htap -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every output the store
// returns is checked against what the generator knows; any mismatch
// makes the run exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// config is what every workload receives: the generated-input seed and
// the run's shape, never anything derived from the store.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	openRate float64 // resp-serve phase 2 offered load, ops/s
	outDir   string  // scratch for durability files and span dumps
}

// result is one run's outcome. Metrics keep insertion order.
type result struct {
	names   []string
	metrics map[string]metricValue
	info    []string

	attempted int64
	failLog
	spans []Span
}

// failLog counts wrong or failed operations and keeps the first few
// descriptions. Each goroutine keeps its own; they merge into the
// result afterwards.
type failLog struct {
	failed int64
	notes  []string
}

func (f *failLog) fail(n int64, format string, args ...any) {
	f.failed += n
	if len(f.notes) < 5 {
		f.notes = append(f.notes, fmt.Sprintf(format, args...))
	}
}

func (f *failLog) merge(o *failLog) {
	f.failed += o.failed
	f.notes = append(f.notes, o.notes...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{metrics: map[string]metricValue{}} }

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config, *result) error{
	"resp-serve":  runServe,
	"engine-htap": runHTAP,
	"wal-upsert":  runWALUpsert,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "resp-serve, engine-htap or wal-upsert")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics, self times, tracing overhead")
	flag.Float64Var(&cfg.openRate, "open-rate", 40000, "resp-serve open-loop offered load (ops/s)")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for durability files and span dumps")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, traceFlag)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// The durability files of this run live in their own directory and
	// are removed however the run ends.
	runDir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.outDir = runDir

	res := newResult()
	envLine(cfg, res)
	err = run(cfg, res)
	os.RemoveAll(runDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.trace && len(res.spans) > 0 {
		path := filepath.Join(filepath.Dir(runDir), fmt.Sprintf("spans-%s-seed%d.txt", cfg.workload, cfg.seed))
		if err := WriteSpans(path, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		res.note("spans written to %s", path)
	}
	for _, l := range res.info {
		fmt.Println("#", l)
	}
	for _, l := range res.notes {
		fmt.Println("# FAIL:", l)
	}
	for _, n := range res.names {
		m := res.metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if res.attempted > 0 {
		fmt.Printf("%-34s %14.6g %s\n", "failed_ops_ratio", float64(res.failed)/float64(res.attempted), "ratio")
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if res.failed != 0 || res.attempted == 0 {
		os.Exit(1)
	}
}

// envLine stamps the run with what it ran on.
func envLine(cfg config, res *result) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fsync, fs := "none", "n/a"
	if cfg.workload == "wal-upsert" {
		fsync, fs = walFsync, fsType(cfg.outDir)
	}
	res.note("env nproc=%d gomaxprocs=%d go=%s commit=%s cpu=%q seed=%d workload=%s seconds=%g trace=%v fsync=%s durability_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, cpuModel(),
		cfg.seed, cfg.workload, cfg.seconds, cfg.trace, fsync, fs)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir: the type of the longest
// mount point in /proc/self/mounts that contains it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, l := range strings.Split(string(b), "\n") {
		f := strings.Fields(l)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
