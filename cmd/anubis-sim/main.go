// Command anubis-sim runs one secure-memory simulation: a workload
// trace through a controller of the chosen scheme, printing execution
// time and traffic statistics.
//
// Usage:
//
//	anubis-sim -scheme agit-plus -app libquantum -n 100000
//	anubis-sim -scheme asit -app mcf -mem 268435456
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"anubis"
	"anubis/internal/memctrl"
	"anubis/internal/sim"
	"anubis/internal/trace"
)

func main() {
	var (
		schemeName = flag.String("scheme", "agit-plus", strings.Join(anubis.SchemeNames(), " | "))
		app        = flag.String("app", "milc", "workload profile (SPEC 2006 name)")
		n          = flag.Int("n", 50000, "number of memory requests")
		mem        = flag.Uint64("mem", 256<<20, "memory size in bytes")
		seed       = flag.Int64("seed", 1, "trace seed")
		baseline   = flag.Bool("baseline", false, "also run write-back and print normalized time")
	)
	flag.Parse()

	scheme, family, err := anubis.ParseScheme(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anubis-sim:", err)
		os.Exit(2)
	}
	prof, ok := trace.ByName(*app)
	if !ok {
		fmt.Fprintf(os.Stderr, "anubis-sim: unknown app %q (have:", *app)
		for _, p := range trace.SPEC2006() {
			fmt.Fprintf(os.Stderr, " %s", p.Name)
		}
		fmt.Fprintln(os.Stderr, ")")
		os.Exit(2)
	}

	cfg := memctrl.DefaultConfig(scheme)
	cfg.MemoryBytes = *mem

	run := func(s memctrl.Scheme) sim.Result {
		c := cfg
		c.Scheme = s
		ctrl, err := memctrl.New(family, c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anubis-sim:", err)
			os.Exit(1)
		}
		res, err := sim.Run(ctrl, trace.NewGenerator(prof, *seed), *n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anubis-sim:", err)
			os.Exit(1)
		}
		return res
	}

	res := run(scheme)
	st := res.Stats
	fmt.Printf("workload        %s (%d requests, %.0f%% writes)\n", prof.Name, *n, 100*prof.WriteFrac)
	fmt.Printf("scheme          %s (%s tree)\n", scheme, family)
	fmt.Printf("exec time       %.3f ms\n", float64(res.ExecNS)/1e6)
	fmt.Printf("nvm reads       %d\n", st.NVM.Reads)
	fmt.Printf("nvm writes      %d (%.2f per write request)\n", st.NVM.Writes, res.WritesPerRequest())
	fmt.Printf("shadow writes   %d\n", st.ShadowWrites)
	fmt.Printf("stop-loss       %d\n", st.StopLossWrites)
	fmt.Printf("wpq stalls      %.3f ms\n", float64(st.NVM.WPQStallNS)/1e6)
	fmt.Printf("drain stalls    %.3f ms\n", float64(st.NVM.DrainStallNS)/1e6)
	fmt.Printf("read latency    %s\n", res.ReadLat.Summary("ns"))
	fmt.Printf("write latency   %s\n", res.WriteLat.Summary("ns"))
	cc := st.CounterCache
	if cc.Hits+cc.Misses > 0 {
		fmt.Printf("counter cache   %.1f%% hit, %d evictions (%.0f%% clean)\n",
			100*float64(cc.Hits)/float64(cc.Hits+cc.Misses), cc.Evictions, 100*res.CleanEvictionFrac())
	}
	tc := st.TreeCache
	if tc.Hits+tc.Misses > 0 {
		fmt.Printf("tree/meta cache %.1f%% hit, %d evictions\n",
			100*float64(tc.Hits)/float64(tc.Hits+tc.Misses), tc.Evictions)
	}
	if *baseline {
		base := run(memctrl.SchemeWriteBack)
		fmt.Printf("normalized      %.3f (vs write-back %.3f ms)\n",
			res.Normalized(base), float64(base.ExecNS)/1e6)
	}
}
