package obs

import (
	"bufio"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func randomRegistry(rng *rand.Rand) *Registry {
	r := NewRegistry()
	names := []string{"a_total", "b_total", `c_total{k="v"}`}
	for _, n := range names {
		if rng.Intn(2) == 0 {
			r.Counter(n, uint64(rng.Intn(1000)))
		}
	}
	for i := 0; i < rng.Intn(20); i++ {
		r.Observe("lat_ns", uint64(rng.Intn(1<<16)))
	}
	return r
}

// countersAndHists strips gauges (last-write-wins, deliberately not
// commutative) for the algebraic-property checks.
func countersAndHists(r *Registry) (map[string]uint64, map[string]Hist) {
	hs := make(map[string]Hist, len(r.hists))
	for k, h := range r.hists {
		hs[k] = *h
	}
	return r.counters, hs
}

func TestRegistryMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a1, b1 := randomRegistry(rng), randomRegistry(rng)
		a2, b2 := NewRegistry(), NewRegistry()
		a2.Merge(a1)
		b2.Merge(b1)

		a1.Merge(b1) // a ⊕ b
		b2.Merge(a2) // b ⊕ a
		ac, ah := countersAndHists(a1)
		bc, bh := countersAndHists(b2)
		if !reflect.DeepEqual(ac, bc) || !reflect.DeepEqual(ah, bh) {
			t.Fatalf("merge not commutative (trial %d)", trial)
		}
	}
}

func TestRegistryMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		a, b, c := randomRegistry(rng), randomRegistry(rng), randomRegistry(rng)
		// (a ⊕ b) ⊕ c
		l := NewRegistry()
		l.Merge(a)
		l.Merge(b)
		l.Merge(c)
		// a ⊕ (b ⊕ c)
		bc := NewRegistry()
		bc.Merge(b)
		bc.Merge(c)
		r := NewRegistry()
		r.Merge(a)
		r.Merge(bc)
		lc, lh := countersAndHists(l)
		rc, rh := countersAndHists(r)
		if !reflect.DeepEqual(lc, rc) || !reflect.DeepEqual(lh, rh) {
			t.Fatalf("merge not associative (trial %d)", trial)
		}
	}
}

// TestPrometheusExposition checks the rendered text against the
// exposition-format grammar: TYPE lines name a valid type, every
// sample line is `name[{labels}] value`, histogram buckets are
// cumulative and end with +Inf == count.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("anubis_cells_completed_total", 42)
	r.Counter(`anubis_stall_ns_total{component="crypto"}`, 100)
	r.Counter(`anubis_stall_ns_total{component="wpq_stall"}`, 7)
	r.Gauge("anubis_trials_per_second", 12.5)
	for i := uint64(1); i < 4000; i *= 3 {
		r.Observe("anubis_trial_wall_ns", i)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()

	var bucketCum []uint64
	var histCount uint64 = ^uint64(0)
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("invalid metric type in %q", line)
			}
			if strings.ContainsAny(f[2], "{}\"") {
				t.Fatalf("TYPE line family carries labels: %q", line)
			}
			continue
		}
		// Sample line: name-with-optional-labels SP value.
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		var f float64
		if _, err := fmt.Sscanf(val, "%g", &f); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if strings.Contains(name, "_bucket{le=") {
			bucketCum = append(bucketCum, uint64(f))
		}
		if name == "anubis_trial_wall_ns_count" {
			histCount = uint64(f)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "anubis_cells_completed_total 42") {
		t.Fatalf("counter sample missing:\n%s", out)
	}
	if !strings.Contains(out, `anubis_stall_ns_total{component="crypto"} 100`) {
		t.Fatalf("labeled counter missing:\n%s", out)
	}
	if len(bucketCum) == 0 || histCount == ^uint64(0) {
		t.Fatalf("histogram series missing:\n%s", out)
	}
	for i := 1; i < len(bucketCum); i++ {
		if bucketCum[i] < bucketCum[i-1] {
			t.Fatalf("histogram buckets not cumulative: %v", bucketCum)
		}
	}
	if last := bucketCum[len(bucketCum)-1]; last != histCount {
		t.Fatalf("+Inf bucket %d != count %d", last, histCount)
	}
}

func TestHistPercentileAndMean(t *testing.T) {
	var h Hist
	for i := uint64(0); i < 1000; i++ {
		h.Add(i)
	}
	if h.Count != 1000 || h.Sum != 999*1000/2 {
		t.Fatalf("count/sum wrong: %+v", h)
	}
	if p50, p99 := h.Percentile(50), h.Percentile(99); p50 > p99 {
		t.Fatalf("p50 %d > p99 %d", p50, p99)
	}
	if h.Max != 999 {
		t.Fatalf("max = %d", h.Max)
	}
	var other Hist
	other.Add(1 << 20)
	h.Merge(&other)
	if h.Count != 1001 || h.Max != 1<<20 {
		t.Fatalf("merge wrong: %+v", h)
	}
	// The top sample sits at the bottom of its bucket, below the
	// bucket's midpoint: no percentile may exceed it.
	if p100 := h.Percentile(100); p100 > h.Max {
		t.Fatalf("p100 %d exceeds max %d", p100, h.Max)
	}
}

func TestRegistryMergeLedger(t *testing.T) {
	var l Ledger
	l.Add(CompCrypto, 80)
	l.Add(CompShadow, 5)
	r := NewRegistry()
	r.MergeLedger("anubis_stall_ns_total", &l)
	r.MergeLedger("anubis_stall_ns_total", &l)
	if got := r.CounterValue(`anubis_stall_ns_total{component="crypto"}`); got != 160 {
		t.Fatalf("crypto counter = %d, want 160", got)
	}
	if got := r.CounterValue(`anubis_stall_ns_total{component="shadow"}`); got != 10 {
		t.Fatalf("shadow counter = %d, want 10", got)
	}
}

// TestLabelEscapeRoundTrip feeds hostile label values through the full
// exposition pipeline — Label → WritePrometheus → a strict line parser
// → UnescapeLabelValue — and requires the originals back. The escaper
// must cover exactly the three characters the text format defines
// (backslash, double-quote, newline) and must NOT touch anything else:
// Go's %q would turn tabs and unicode into \t and \uXXXX sequences,
// which are invalid exposition escapes.
func TestLabelEscapeRoundTrip(t *testing.T) {
	nasty := []string{
		"plain",
		`back\slash`,
		`dou"ble`,
		"new\nline",
		"tab\there",
		"unicode-é-漢",
		`all"three\of` + "\nthem",
		`trailing\`,
		"",
	}
	r := NewRegistry()
	want := make(map[string]uint64) // raw value -> counter value
	for i, v := range nasty {
		r.Counter(Label("anubis_escape_test_total", "v", v), uint64(i+1))
		want[v] = uint64(i + 1)
	}

	var buf strings.Builder
	r.WritePrometheus(&buf)

	// Strict parser: every sample line must be
	//   name{k="escaped",...} value
	// with only \\ \" \n escapes inside quotes.
	got := make(map[string]uint64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, raw, value := parseSampleLine(t, line)
		if name != "anubis_escape_test_total" {
			continue
		}
		unescaped, err := UnescapeLabelValue(raw)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		got[unescaped] = value
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d distinct values, want %d: %#v", len(got), len(want), got)
	}
	for v, n := range want {
		if got[v] != n {
			t.Errorf("value %q: got counter %d, want %d", v, got[v], n)
		}
	}
}

// parseSampleLine is the strict exposition-format scanner the
// round-trip test uses: it rejects unescaped quotes, bare newlines
// (impossible by construction — they would split the line), and any
// escape outside the defined three.
func parseSampleLine(t *testing.T, line string) (name, rawLabelV string, value uint64) {
	t.Helper()
	open := strings.IndexByte(line, '{')
	if open < 0 {
		t.Fatalf("sample line without labels: %q", line)
	}
	name = line[:open]
	rest := line[open+1:]
	if !strings.HasPrefix(rest, `v="`) {
		t.Fatalf("unexpected label key in %q", line)
	}
	rest = rest[len(`v="`):]
	// Scan to the closing unescaped quote.
	var sb strings.Builder
	i := 0
	for {
		if i >= len(rest) {
			t.Fatalf("unterminated label value in %q", line)
		}
		c := rest[i]
		if c == '"' {
			break
		}
		if c == '\\' {
			if i+1 >= len(rest) {
				t.Fatalf("dangling backslash in %q", line)
			}
			next := rest[i+1]
			if next != '\\' && next != '"' && next != 'n' {
				t.Fatalf("invalid escape \\%c in %q", next, line)
			}
			sb.WriteByte(c)
			sb.WriteByte(next)
			i += 2
			continue
		}
		sb.WriteByte(c)
		i++
	}
	rest = rest[i+1:] // past closing quote
	if !strings.HasPrefix(rest, "} ") {
		t.Fatalf("malformed sample tail %q in %q", rest, line)
	}
	var v uint64
	if _, err := fmt.Sscanf(rest[2:], "%d", &v); err != nil {
		t.Fatalf("bad sample value in %q: %v", line, err)
	}
	return name, sb.String(), v
}

// TestUnescapeLabelValueRejectsUndefined: the strict decoder errors on
// escapes the exposition format does not define.
func TestUnescapeLabelValueRejectsUndefined(t *testing.T) {
	for _, bad := range []string{`\t`, `\x41`, `a\`, `\é`} {
		if got, err := UnescapeLabelValue(bad); err == nil {
			t.Errorf("UnescapeLabelValue(%q) = %q, want error", bad, got)
		}
	}
	for raw, want := range map[string]string{
		`\\`: `\`, `\"`: `"`, `\n`: "\n", `a\\b\"c\nd`: "a\\b\"c\nd",
	} {
		got, err := UnescapeLabelValue(raw)
		if err != nil || got != want {
			t.Errorf("UnescapeLabelValue(%q) = %q, %v; want %q", raw, got, err, want)
		}
	}
}

// TestLabelTameValuesByteIdentical: Label must render tame values (the
// ones every existing metric uses) exactly like the %q builders it
// replaced, so dashboards and baselines keyed on metric names survive
// the escaping audit unchanged.
func TestLabelTameValuesByteIdentical(t *testing.T) {
	cases := [][]string{
		{"anubis_serve_tenant_requests_total", "tenant", "t0", "op", "write"},
		{"anubis_fuzz_trials_total", "policy", "epoch", "model", "torn-block"},
		{"anubis_stall_ns_total", "component", "crypto"},
	}
	for _, c := range cases {
		got := Label(c[0], c[1:]...)
		var sb strings.Builder
		sb.WriteString(c[0])
		sb.WriteByte('{')
		for i := 1; i+1 < len(c); i += 2 {
			if i > 1 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%s=%q", c[i], c[i+1])
		}
		sb.WriteByte('}')
		if got != sb.String() {
			t.Errorf("Label(%v) = %q, want %q", c, got, sb.String())
		}
	}
}
