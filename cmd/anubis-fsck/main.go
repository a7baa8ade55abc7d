// Command anubis-fsck audits a secure NVM image: every data block,
// counter block, and integrity tree node is verified against the
// on-chip roots — an fsck for secure memory.
//
// It can also create demo images (clean or deliberately corrupted):
//
//	anubis-fsck -create img.anvm                # build a clean image
//	anubis-fsck -create img.anvm -corrupt data  # ...with an injected fault
//	anubis-fsck img.anvm                        # audit it
//
// The scheme and memory size must match the image's creation
// parameters (like any real controller reattaching to a DIMM).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"anubis"
)

func main() {
	var (
		create  = flag.String("create", "", "create a demo image at this path instead of auditing")
		corrupt = flag.String("corrupt", "", "with -create: inject a fault (data | counter)")
		scheme  = flag.String("scheme", "agit-plus", strings.Join(anubis.SchemeNames(), " | "))
		mem     = flag.Uint64("mem", 8<<20, "memory size in bytes")
		writes  = flag.Int("w", 2000, "writes when creating a demo image")
		verbose = flag.Bool("v", false, "print the per-phase recovery-time breakdown after reattach")
		jsonOut = flag.Bool("json", false, "emit the verdict as one JSON object instead of text")
	)
	flag.Parse()

	s, tree, err := anubis.ParseScheme(*scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anubis-fsck:", err)
		os.Exit(2)
	}
	cfg := anubis.Config{Scheme: s, Tree: tree, MemoryBytes: *mem}

	if *create != "" {
		if err := createImage(cfg, *create, *corrupt, *writes); err != nil {
			fmt.Fprintln(os.Stderr, "anubis-fsck:", err)
			os.Exit(1)
		}
		fmt.Printf("image written to %s (%s, %d MB, %d writes", *create, *scheme, *mem>>20, *writes)
		if *corrupt != "" {
			fmt.Printf(", %s fault injected", *corrupt)
		}
		fmt.Println(")")
		return
	}

	path := flag.Arg(0)
	if path == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anubis-fsck:", err)
		os.Exit(1)
	}
	defer f.Close()

	sys, rec, err := anubis.OpenImage(cfg, f)
	if err != nil {
		// A recovery failure IS a verdict: the image cannot be brought
		// to a verified state (tampering or unrecoverable crash state).
		if *jsonOut {
			emitJSON(fsckVerdict{Verdict: "corrupt", RecoveryError: err.Error()})
		} else {
			fmt.Printf("image is CORRUPT: recovery failed: %v\n", err)
		}
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Printf("recovered: %d entries scanned, %d counters fixed, %d nodes rebuilt (%s modeled)\n",
			rec.EntriesScanned, rec.CountersFixed, rec.NodesRebuilt, anubis.FormatDuration(rec.ModeledNS))
		if *verbose {
			printPhases(rec)
		}
	}

	rep, err := sys.Audit()
	if err != nil {
		fmt.Fprintln(os.Stderr, "anubis-fsck:", err)
		os.Exit(1)
	}
	if *jsonOut {
		v := fsckVerdict{
			Verdict: "clean", Recovery: &rec, Audit: &rep,
		}
		if !rep.OK() {
			v.Verdict = "corrupt"
		}
		emitJSON(v)
		if !rep.OK() {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("audited: %d data blocks, %d counter blocks, %d tree nodes\n",
		rep.DataBlocks, rep.CounterBlocks, rep.TreeNodes)
	if rep.OK() {
		fmt.Println("image is CLEAN ✓")
		return
	}
	fmt.Printf("image is CORRUPT: %d violations\n", len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Println("  -", v)
	}
	os.Exit(1)
}

// fsckVerdict is the -json output shape.
type fsckVerdict struct {
	Verdict       string                 `json:"verdict"` // clean | corrupt
	RecoveryError string                 `json:"recovery_error,omitempty"`
	Recovery      *anubis.RecoveryReport `json:"recovery,omitempty"`
	Audit         *anubis.AuditReport    `json:"audit,omitempty"`
}

func emitJSON(v fsckVerdict) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// printPhases renders the reattach recovery's non-zero phases; the
// values sum exactly to the modeled recovery time (DESIGN.md §16).
func printPhases(rec anubis.RecoveryReport) {
	if rec.ModeledNS == 0 {
		return
	}
	for _, name := range anubis.RecoveryPhases() {
		v := rec.Phases[name]
		if v == 0 {
			continue
		}
		fmt.Printf("  %-22s %12s  %5.1f%%\n",
			name, anubis.FormatDuration(v), 100*float64(v)/float64(rec.ModeledNS))
	}
}

func createImage(cfg anubis.Config, path, corrupt string, writes int) error {
	sys, err := anubis.New(cfg)
	if err != nil {
		return err
	}
	for i := 0; i < writes; i++ {
		addr := uint64(i*37) % sys.NumBlocks()
		if err := sys.WriteBlock(addr, []byte(fmt.Sprintf("record %d", i))); err != nil {
			return err
		}
	}
	if err := sys.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	switch corrupt {
	case "":
	case "data":
		sys.TamperData(37%sys.NumBlocks(), 3, 0x40)
	case "counter":
		sys.TamperCounter(0, 10, 0x02)
	default:
		return fmt.Errorf("unknown corruption kind %q", corrupt)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return sys.SaveImage(f)
}
