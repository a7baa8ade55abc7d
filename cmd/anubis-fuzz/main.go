// Command anubis-fuzz drives the differential crash-injection fuzzer
// (internal/crashfuzz) outside the go-test harness: seeded random
// schedules across workload profiles, controller schemes, crash points,
// relaxed-persistence crash models, and post-crash media faults.
//
// A failing schedule is auto-shrunk to a minimal repro and printed as a
// single-line replay token; re-run it with:
//
//	anubis-fuzz -replay 'v1 profile=… combo=… model=… …'
//
// Exit status is non-zero iff a violation was found.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"anubis"
	"anubis/internal/crashfuzz"
	"anubis/internal/nvm"
	"anubis/internal/obs"
)

func main() {
	var (
		trials  = flag.Int("trials", 500, "number of random schedules to execute")
		seed    = flag.Int64("seed", 99, "master seed: schedule stream and trace seed")
		scheme  = flag.String("scheme", "all", "restrict to one scheme (e.g. agit-plus, osiris-sgx) or 'all'")
		model   = flag.String("model", "all", "restrict to one crash model (full-adr, partial-drain, torn-block) or 'all'")
		replay  = flag.String("replay", "", "replay a single schedule token (skips random generation)")
		verbose = flag.Bool("v", false,
			"print every schedule as it runs and a campaign summary (per-trial wall-time histogram, trial/violation counters by policy class and crash model)")
		metricsAddr = flag.String("metrics-addr", "",
			"serve live campaign telemetry on this address (/metrics Prometheus text)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: anubis-fuzz [-trials N] [-seed S] [-scheme name] [-model m] [-replay token]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nschemes: %s\nmodels: %s\n",
			strings.Join(anubis.SchemeNames(), " "), modelNames())
	}
	flag.Parse()

	r := crashfuzz.NewRunner()

	camp := newCampaign()
	if *metricsAddr != "" {
		tel := obs.NewTelemetry()
		msrv, err := obs.Serve(*metricsAddr, tel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anubis-fuzz:", err)
			os.Exit(2)
		}
		defer msrv.Close()
		camp.tel = tel
		fmt.Printf("telemetry: http://%s/metrics (Prometheus)\n", msrv.Addr())
	}

	if *replay != "" {
		s, err := crashfuzz.ParseSchedule(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("replaying: %s\n", s)
		if v := r.RunTrial(s); v != nil {
			report(r, v, false) // already minimal by convention; don't re-shrink a replay
			os.Exit(1)
		}
		fmt.Println("PASS: no violation")
		return
	}

	var comboFilter *crashfuzz.Combo
	if *scheme != "all" {
		s, tree, err := anubis.ParseScheme(*scheme)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anubis-fuzz:", err)
			os.Exit(2)
		}
		comboFilter = &crashfuzz.Combo{Family: tree, Scheme: s}
	}
	var modelFilter *nvm.CrashModel
	if *model != "all" {
		m, ok := nvm.ParseCrashModel(*model)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown crash model %q (want one of: %s)\n", *model, modelNames())
			os.Exit(2)
		}
		modelFilter = &m
	}

	rng := rand.New(rand.NewSource(*seed))
	violations := 0
	for i := 0; i < *trials; i++ {
		s := crashfuzz.RandomSchedule(rng, *seed)
		if comboFilter != nil {
			s.Combo = *comboFilter
		}
		if modelFilter != nil {
			s.Model = *modelFilter
		}
		if *verbose {
			fmt.Printf("trial %4d: %s\n", i, s)
		}
		start := time.Now()
		v := r.RunTrial(s)
		camp.trial(s, time.Since(start), v)
		if v != nil {
			violations++
			fmt.Printf("\ntrial %d FAILED\n", i)
			report(r, v, true)
			break // first violation ends the run: fix, then re-fuzz
		}
	}
	if *verbose {
		camp.summarize(os.Stdout)
	}
	if violations > 0 {
		os.Exit(1)
	}
	fmt.Printf("PASS: %d trials, 0 violations, 0 panics (seed %d, scheme %s, model %s)\n",
		*trials, *seed, *scheme, *model)
}

// campaign aggregates fuzz-campaign observability: a per-trial
// wall-time histogram plus trial and violation counters keyed by
// recovery-policy class and crash model. The local registry backs the
// -v summary; when -metrics-addr is set the same updates are mirrored
// to the live telemetry registry under the mutex.
type campaign struct {
	reg   *obs.Registry
	tel   *obs.Telemetry
	start time.Time
}

func newCampaign() *campaign {
	return &campaign{reg: obs.NewRegistry(), start: time.Now()}
}

// trial records one completed trial (v == nil means it passed).
func (c *campaign) trial(s crashfuzz.Schedule, wall time.Duration, v *crashfuzz.Violation) {
	rec := func(r *obs.Registry) {
		policy, model := crashfuzz.PolicyOf(s.Combo).String(), s.Model.String()
		r.Counter(obs.Label("anubis_fuzz_trials_total", "policy", policy, "model", model), 1)
		r.Observe("anubis_fuzz_trial_wall_us", uint64(wall.Microseconds()))
		if v != nil {
			r.Counter(obs.Label("anubis_fuzz_violations_total",
				"phase", string(v.Phase), "policy", policy, "model", model), 1)
		}
	}
	rec(c.reg)
	if c.tel != nil {
		c.tel.Update(rec)
	}
}

// summarize prints the -v campaign report: trial wall-time percentiles
// and the per-class counters, in deterministic order.
func (c *campaign) summarize(w *os.File) {
	h := c.reg.Histogram("anubis_fuzz_trial_wall_us")
	if h == nil || h.Count == 0 {
		return
	}
	fmt.Fprintf(w, "\ncampaign summary (%d trials, %.2fs wall)\n", h.Count, time.Since(c.start).Seconds())
	fmt.Fprintf(w, "  per-trial wall time: mean=%.0fµs p50=%dµs p90=%dµs p99=%dµs max=%dµs\n",
		h.Mean(), h.Percentile(50), h.Percentile(90), h.Percentile(99), h.Max)
	fmt.Fprintf(w, "  distribution: %s\n", h)
	snap := c.reg.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		if strings.HasPrefix(name, "anubis_fuzz_trials_total") ||
			strings.HasPrefix(name, "anubis_fuzz_violations_total") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintln(w, "  trials by policy class and crash model:")
	for _, name := range names {
		fmt.Fprintf(w, "    %-72s %6.0f\n", name, snap[name])
	}
}

// report prints a violation and, when asked, shrinks it to the minimal
// reproducing schedule first.
func report(r *crashfuzz.Runner, v *crashfuzz.Violation, shrink bool) {
	fmt.Printf("%v\n", v)
	if !shrink {
		return
	}
	min, mv := r.Shrink(v.Schedule)
	if mv == nil {
		fmt.Println("(shrink: failure did not reproduce; original schedule above)")
		return
	}
	fmt.Printf("\nshrunk to minimal repro (%s phase: %s)\n", mv.Phase, firstLine(mv.Msg))
	fmt.Printf("replay with:\n  anubis-fuzz -replay '%s'\n", min)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func modelNames() string {
	names := make([]string, 0, 3)
	for _, m := range nvm.CrashModels() {
		names = append(names, m.String())
	}
	return strings.Join(names, " ")
}
