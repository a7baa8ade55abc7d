// Command perfbench measures the repository end to end on three
// workloads (sweep, recovery, serve), checks the simulated outputs, and
// prints one JSON result line. See README.md.
//
//	python3 perfbench/run.py --workload sweep --seed 99 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	// setupRepeats is how many times each workload sets up; setup_s is
	// the median.
	setupRepeats = 9
	// minRepeats is the fewest measured repeats of a sweep pass or a
	// recovery round, so the digest is always compared across repeats.
	minRepeats = 2
)

// endToEnd lists the metrics every untraced run reports, in
// BENCHMARK.json order; perLayer lists those of a traced run.
var endToEnd = []nameUnit{
	{"setup_s", "s"}, {"peak_rss_mb", "MiB"}, {"work_per_cpu_s", "1/cpu-s"}, {"task_p50_us", "us"},
}

var perLayer = func() []nameUnit {
	l := []nameUnit{
		{"trace.arena_ms", "ms"},
		{"memctrl.read_ns_p50", "ns"}, {"memctrl.read_ns_p99", "ns"},
		{"memctrl.write_ns_p50", "ns"}, {"memctrl.write_ns_p99", "ns"},
		{"memctrl.new_ms_p50", "ms"},
		{"sim.self_ms", "ms"}, {"sim.window_ms_p50", "ms"},
		{"memctrl.clone_us_p50", "us"}, {"memctrl.crash_us_p50", "us"},
	}
	for _, sc := range recSchemes {
		l = append(l, nameUnit{"memctrl.recover_ms_p50." + sc.scheme.String(), "ms"},
			nameUnit{"memctrl.recover_ms_tail." + sc.scheme.String(), "ms"})
	}
	l = append(l,
		nameUnit{"cache.counter_hit_ratio", "ratio"}, nameUnit{"cache.tree_hit_ratio", "ratio"},
		nameUnit{"cache.meta_hit_ratio", "ratio"},
		nameUnit{"nvm.writes_per_write", "ratio"}, nameUnit{"shadow.writes_per_write", "ratio"})
	for _, c := range stallComps() {
		l = append(l, nameUnit{"memctrl.stall_ns_per_req." + c, "ns"})
	}
	for _, p := range recPhaseNames() {
		l = append(l, nameUnit{"memctrl.recovery_ns_per_trial." + p, "ns"})
	}
	l = append(l,
		nameUnit{"memctrl.recovery_ops_per_trial.fetch", "count"},
		nameUnit{"memctrl.recovery_ops_per_trial.crypto", "count"},
		nameUnit{"serve.handler_us_p50.read_block", "us"}, nameUnit{"serve.handler_us_p50.write_block", "us"},
		nameUnit{"serve.handler_us_p99.read_block", "us"}, nameUnit{"serve.handler_us_p99.write_block", "us"},
		nameUnit{"serve.handler_ms_p50.recover", "ms"},
		nameUnit{"serve.op_wall_us_p50", "us"}, nameUnit{"serve.op_wall_us_p99", "us"},
		nameUnit{"serve.http_us_p50", "us"}, nameUnit{"serve.shed_ratio", "ratio"},
		nameUnit{"runtime.alloc_bytes_per_op", "B"}, nameUnit{"runtime.gc_cycles_per_kop", "1/kop"},
		nameUnit{"bench.trace_overhead_pct", "%"})
	return l
}()

type nameUnit struct{ name, unit string }

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outDir   string
}

func (o options) spanPath() string {
	return filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
}

// outcome collects one run's counts, checks and metrics.
type outcome struct {
	attempted, failed int
	problems, notes   []string
	digests           []string // simulated-output digest of every repeat
	e2eM, namedM      metricSet
	layerM            metricSet
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.fail(format, args...)
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// cpuTime is the CPU time the process has used, all threads together.
// The kernel leaves out time the hypervisor stole from the VM, so on a
// shared host it follows the program's own work, where wall time also
// follows the neighbours' load.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF into a valid struct cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeSetup runs a workload's set-up setupRepeats times and records the
// median CPU time as setup_s. Before each repeat after the first,
// release drops the previous set-up outside the timed region, and the
// heap is collected: no repeat is charged for the teardown or the
// garbage of the one before it, and the process never holds two
// set-ups, so the peak RSS is the workload's own.
func (o *outcome) timeSetup(setup, release func() error) error {
	var runs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			if err := release(); err != nil {
				return err
			}
		}
		runtime.GC()
		t := cpuTime()
		if err := setup(); err != nil {
			return err
		}
		runs = append(runs, (cpuTime() - t).Seconds())
	}
	o.e2eM.set("setup_s", median(runs), "s", len(runs))
	return nil
}

// e2e records the workload's work units per CPU-second (over n
// repeats, or the whole measured region) and the median task (a cell's
// or a round's CPU time, a request's round trip) over nTasks tasks.
func (o *outcome) e2e(workPerCPUS float64, n int, p50us float64, nTasks int) {
	o.e2eM.set("work_per_cpu_s", workPerCPUS, "1/cpu-s", n)
	o.e2eM.set("task_p50_us", p50us, "us", nTasks)
}

func (o *outcome) named(name string, v float64, unit string, n int) { o.namedM.set(name, v, unit, n) }

func (o *outcome) layer(name string, v float64, unit string, n int) { o.layerM.set(name, v, unit, n) }

// overhead reports traced wall time against the untraced time of the
// same work.
func (o *outcome) overhead(traced, untraced time.Duration) {
	o.layer("bench.trace_overhead_pct", 100*(traced-untraced).Seconds()/untraced.Seconds(), "%", 1)
	o.note("tracing overhead: traced %.3f s, untraced %.3f s", traced.Seconds(), untraced.Seconds())
}

// moreRepeats reports whether another repeat should start: one that
// takes as long as the last must end no more than half its length after
// the deadline, so a run lasts about its --seconds.
func moreRepeats(deadline time.Time, last time.Duration) bool {
	return time.Now().Add(last / 2).Before(deadline)
}

// runtimeCount measures allocation and GC cycles per operation over a
// measured region, so that neither grows with the number of operations
// a faster host fits into it.
type runtimeCount struct{ ms runtime.MemStats }

func startRuntimeCount() *runtimeCount {
	r := &runtimeCount{}
	runtime.ReadMemStats(&r.ms)
	return r
}

func (r *runtimeCount) stop(out *outcome, ops float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.layer("runtime.alloc_bytes_per_op", float64(ms.TotalAlloc-r.ms.TotalAlloc)/ops, "B", int(ops))
	out.layer("runtime.gc_cycles_per_kop", 1e3*float64(ms.NumGC-r.ms.NumGC)/ops, "1/kop", int(ops))
}

// digest hashes simulated outputs through their JSON encoding.
func digest[T any](xs []T) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range xs {
		if err := enc.Encode(xs[i]); err != nil {
			panic(err) // plain data structs always encode
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var workloads = map[string]func(options, *outcome) error{
	"sweep":    runSweep,
	"recovery": runRecovery,
	"serve":    runServe,
}

func main() {
	var o options
	var secs, traceFlag int
	flag.StringVar(&o.workload, "workload", "sweep", "workload: sweep, recovery or serve")
	flag.Int64Var(&o.seed, "seed", 99, "workload seed (trace seed; serve key stream)")
	flag.IntVar(&secs, "seconds", 10, "seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for span files")
	flag.Parse()
	o.seconds, o.trace = time.Duration(secs)*time.Second, traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || secs < 1 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload sweep|recovery|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if o.trace {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	out := &outcome{e2eM: metricSet{}, namedM: metricSet{}, layerM: metricSet{}}
	if err := run(o, out); err != nil {
		out.fail("%s: %v", o.workload, err)
	}
	for _, d := range out.digests {
		out.check(d == out.digests[0], "simulated-output digests differ across repeats: %v", out.digests)
	}
	if rss, err := peakRSSMiB(); err != nil {
		out.fail("peak RSS: %v", err)
	} else {
		out.e2eM.set("peak_rss_mb", rss, "MiB", 1)
	}
	os.Exit(report(o, out))
}

// report prints every metric with its unit and sample count, then the
// JSON result line, and returns the exit code.
func report(o options, out *outcome) int {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%t go=%s GOMAXPROCS=%d\n",
		o.workload, o.seed, int(o.seconds.Seconds()), o.trace, runtime.Version(), runtime.GOMAXPROCS(0))
	for _, sec := range []struct {
		title string
		m     metricSet
	}{{"end-to-end", out.e2eM}, {"workload", out.namedM}, {"per-layer", out.layerM}} {
		names := make([]string, 0, len(sec.m))
		for n := range sec.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := sec.m[n]
			fmt.Printf("  %-11s %-44s %16.6g %-13s n=%d\n", sec.title, n, m.Value, m.Unit, m.N)
		}
	}
	if len(out.digests) > 0 {
		fmt.Printf("  digest %s (%d repeats)\n", out.digests[0], len(out.digests))
	}
	for _, n := range out.notes {
		fmt.Println("  note:", n)
	}
	for _, p := range out.problems {
		fmt.Println("  CHECK FAILED:", p)
	}
	if len(out.problems) > 0 && out.failed == 0 {
		out.failed = 1
	}
	if out.attempted < 1 {
		out.attempted = 1
	}
	list, src := endToEnd, out.e2eM
	if o.trace {
		list, src = perLayer, out.layerM
	}
	metrics := map[string]map[string]any{}
	for _, nu := range list {
		v := 0.0 // a layer this workload does not exercise did no work
		if m, ok := src[nu.name]; ok {
			v = m.Value
		}
		metrics[nu.name] = map[string]any{"value": v, "unit": nu.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": len(out.problems) == 0, "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(out.problems) > 0 {
		return 1
	}
	return 0
}
