// Command anubis-recover demonstrates crash recovery end-to-end: it
// runs a workload against a secure memory, pulls the plug, recovers,
// and verifies every written block — printing the recovery report and
// the modeled recovery time for each scheme.
//
// Usage:
//
//	anubis-recover                     # compare every scheme
//	anubis-recover -scheme asit -w 5000
//
// Exit status is 1 when any scheme's recovery fails or a recovered
// scheme reads a block back wrong; schemes without a recovery
// mechanism ("no-recovery") do not count as failures.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"anubis"
)

func main() {
	var (
		schemeName = flag.String("scheme", "", "restrict to one scheme: "+strings.Join(anubis.SchemeNames(), " | "))
		writes     = flag.Int("w", 2000, "writes before the crash")
		mem        = flag.Uint64("mem", 32<<20, "memory size in bytes")
		verbose    = flag.Bool("v", false, "print the per-phase recovery-time breakdown under each scheme")
		jsonOut    = flag.Bool("json", false, "emit one JSON object per scheme instead of the table")
	)
	flag.Parse()

	names := anubis.SchemeNames()
	if *schemeName != "" {
		if _, _, err := anubis.ParseScheme(*schemeName); err != nil {
			fmt.Fprintln(os.Stderr, "anubis-recover:", err)
			os.Exit(2)
		}
		names = []string{*schemeName}
	}

	if !*jsonOut {
		fmt.Printf("%-13s %-12s %10s %10s %10s %12s  %s\n",
			"scheme", "result", "fetchOps", "cryptoOps", "fixed", "modeled", "data")
	}
	enc := json.NewEncoder(os.Stdout)
	failed := false
	for _, name := range names {
		row, err := runOne(name, *writes, *mem)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%-13s error: %v\n", name, err)
			failed = true
			continue
		}
		failed = failed || row.failed()
		if *jsonOut {
			_ = enc.Encode(row)
			continue
		}
		fmt.Printf("%-13s %-12s %10d %10d %10d %12s  %d/%d blocks verified\n",
			name, row.Result, row.FetchOps, row.CryptoOps, row.CountersFixed,
			anubis.FormatDuration(row.ModeledNS), row.DataVerified, row.DataVerified+row.DataBad)
		if *verbose {
			printPhases(row)
		}
	}
	if !*jsonOut {
		fmt.Println()
		fmt.Println("For scale: analytic recovery-time model at production sizes —")
		fmt.Printf("  Osiris, 8 TB NVM:                 %s\n",
			anubis.FormatDuration(anubis.EstimateRecoveryNS(anubis.Osiris, 8<<40, 0, 0)))
		fmt.Printf("  Anubis AGIT, 256 KB caches:       %s\n",
			anubis.FormatDuration(anubis.EstimateRecoveryNS(anubis.AGITPlus, 0, 256<<10, 256<<10)))
		fmt.Printf("  Anubis ASIT, 512 KB cache:        %s\n",
			anubis.FormatDuration(anubis.EstimateRecoveryNS(anubis.ASIT, 0, 256<<10, 256<<10)))
	}
	if failed {
		os.Exit(1)
	}
}

// recoverRow is the -json shape of one scheme's run.
type recoverRow struct {
	Scheme        string            `json:"scheme"`
	Result        string            `json:"result"`
	FetchOps      uint64            `json:"fetch_ops"`
	CryptoOps     uint64            `json:"crypto_ops"`
	CountersFixed uint64            `json:"counters_fixed"`
	ModeledNS     uint64            `json:"modeled_ns"`
	Phases        map[string]uint64 `json:"recovery_phase_ns"`
	DataVerified  int               `json:"data_blocks_verified"`
	DataBad       int               `json:"data_blocks_bad"`
}

// failed reports whether the row fails the run: recovery returned an
// error, or it succeeded and a block reads back wrong. A scheme with no
// recovery mechanism reads back whatever survived and fails nothing.
func (r *recoverRow) failed() bool {
	return r.Result == "FAILED" || (r.Result == "RECOVERED" && r.DataBad > 0)
}

// runOne writes, crashes, recovers and reads back one scheme's memory.
// An error means the run never reached the crash.
func runOne(name string, writes int, mem uint64) (*recoverRow, error) {
	scheme, tree, err := anubis.ParseScheme(name)
	if err != nil {
		return nil, err
	}
	sys, err := anubis.New(anubis.Config{
		Scheme:            scheme,
		Tree:              tree,
		MemoryBytes:       mem,
		CounterCacheBytes: 32 << 10,
		TreeCacheBytes:    32 << 10,
		MetaCacheBytes:    64 << 10,
		TriadLevels:       2,
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(7))
	expect := map[uint64][]byte{}
	for i := 0; i < writes; i++ {
		addr := uint64(rng.Intn(int(sys.NumBlocks())))
		d := make([]byte, anubis.BlockSize)
		rng.Read(d)
		if err := sys.WriteBlock(addr, d); err != nil {
			return nil, fmt.Errorf("write: %w", err)
		}
		expect[addr] = d
	}

	sys.Crash()
	rep, err := sys.Recover()

	row := &recoverRow{
		Scheme: name, Result: "RECOVERED",
		FetchOps: rep.FetchOps, CryptoOps: rep.CryptoOps,
		CountersFixed: rep.CountersFixed, ModeledNS: rep.ModeledNS, Phases: rep.Phases,
	}
	switch {
	case errors.Is(err, anubis.ErrNotRecoverable):
		row.Result = "no-recovery"
	case err != nil:
		row.Result = "FAILED"
		return row, nil
	}
	for addr, want := range expect {
		got, rerr := sys.ReadBlock(addr)
		if rerr != nil || !bytes.Equal(got, want) {
			row.DataBad++
		} else {
			row.DataVerified++
		}
	}
	return row, nil
}

// printPhases renders the non-zero recovery phases as an indented
// table with a share-of-total column; the phase values sum exactly to
// the modeled recovery time by construction (DESIGN.md §16).
func printPhases(row *recoverRow) {
	if row.ModeledNS == 0 {
		fmt.Printf("              %-22s (no modeled recovery work)\n", "phases:")
		return
	}
	for _, p := range anubis.RecoveryPhases() {
		v := row.Phases[p]
		if v == 0 {
			continue
		}
		fmt.Printf("              %-22s %12s  %5.1f%%\n",
			p, anubis.FormatDuration(v), 100*float64(v)/float64(row.ModeledNS))
	}
}
