package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestTotalCountsEveryCell runs the command itself on Fig 7 and the
// ablation tables and checks that the stderr total line counts one
// simulation cell per thread of the -trace-events trace, every figure
// and ablation cell running in a trace scope of its own, and that no
// two threads share a name: Fig 7's libquantum cell is the ablations'
// write-back baseline, and it runs once.
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
		Ph   string         `json:"ph"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatal(err)
	}
	threads, names := 0, map[string]bool{}
	for _, e := range events {
		if e.Ph == "M" {
			threads++
			names[e.Args["name"].(string)] = true
		}
	}
	if cells != threads || cells == 0 {
		t.Fatalf("total line counts %d cells, the trace has %d threads", cells, threads)
	}
	if len(names) != threads {
		t.Fatalf("the trace names %d distinct cells in %d threads", len(names), threads)
	}
}

// mainArgsEnv, when set in a re-run of this test binary, makes
// TestMain run the command's main on its space-separated arguments
// instead of the tests.
const mainArgsEnv = "ANUBIS_BENCH_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"anubis-bench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTrialsMustBePositive: a -trials below 1 is rejected with exit
// status 1 before anything prints or runs, as a -trace-sample below 1
// is, instead of running RecoverySweep's library default.
func TestTrialsMustBePositive(t *testing.T) {
	for _, trials := range []string{"0", "-3"} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), mainArgsEnv+"=-recovery -n 300 -trials "+trials)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-trials %s: err = %v, want exit status 1", trials, err)
		}
		if want := "-trials must be >= 1 (got " + trials + ")"; !strings.Contains(stderr.String(), want) {
			t.Errorf("-trials %s: stderr %q lacks %q", trials, stderr.String(), want)
		}
		if stdout.Len() != 0 {
			t.Errorf("-trials %s printed %q", trials, stdout.String())
		}
	}
}
