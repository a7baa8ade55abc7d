package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestTotalCountsEveryCell runs the command itself on Fig 7 and the four
// ablations and checks that the stderr total line counts one simulation
// cell per thread of the -trace-events trace: every figure and ablation
// cell runs in a trace scope of its own.
func TestTotalCountsEveryCell(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	args, cmdline, out, errOut := os.Args, flag.CommandLine, os.Stdout, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stdout, os.Stderr = args, cmdline, out, errOut }()
	os.Args = []string{"anubis-bench", "-fig7", "-ablations", "-n", "300", "-apps", "libquantum",
		"-parallel", "2", "-trace-events", tracePath}
	flag.CommandLine = flag.NewFlagSet("anubis-bench", flag.ExitOnError)
	os.Stdout, os.Stderr = stdout, stderr
	main()

	total, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`total: \S+ ms wall, (\d+) simulation cells`).FindSubmatch(total)
	if m == nil {
		t.Fatalf("stderr has no total line: %q", total)
	}
	cells, _ := strconv.Atoi(string(m[1]))
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Ph string `json:"ph"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatal(err)
	}
	threads := 0
	for _, e := range events {
		if e.Ph == "M" {
			threads++
		}
	}
	if cells != threads || cells == 0 {
		t.Fatalf("total line counts %d cells, the trace has %d threads", cells, threads)
	}
}
