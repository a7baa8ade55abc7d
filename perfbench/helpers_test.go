package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(50 - i) // unsorted input: 50, 49, ..., 1
	}
	v, pct, ok := tailPercentile(xs, 10)
	if !ok || v != 40 || pct != 80 {
		t.Fatalf("50 samples: got %v at p%v ok=%v, want 40 at p80", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the tail value, want 10", beyond)
	}
	if v, pct, ok := tailPercentile(xs[:11], 10); !ok || v != 40 || math.Abs(pct-100.0/11) > 1e-9 {
		t.Fatalf("11 samples: got %v at p%v ok=%v, want the minimum 40 at p%.2f", v, pct, ok, 100.0/11)
	}
	if _, _, ok := tailPercentile(xs[:10], 10); ok {
		t.Fatal("10 samples have no percentile with 10 beyond it")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {1.0 / 3, 2}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestLatHistQuantile(t *testing.T) {
	var h latHist
	var xs []float64
	for i := uint64(1); i <= 100000; i++ {
		v := 20000 + (i*7919)%90000 // 20..110 us, all buckets of width >= 128 ns
		h.add(v)
		xs = append(xs, float64(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact, got := quantile(xs, q), h.quantile(q)
		if math.Abs(got-exact)/exact > 1.0/128 {
			t.Errorf("q%v: histogram %v, exact %v", q, got, exact)
		}
	}
	for _, v := range []uint64{0, 127, 128, 255, 256, 300, 1 << 20, 1<<40 + 5} {
		lo, w := latBucketRange(latBucket(v))
		if v < 1<<39 && (float64(v) < lo || float64(v) >= lo+w) {
			t.Errorf("value %d lands in bucket [%v, %v)", v, lo, lo+w)
		}
	}
}

func TestSelfTime(t *testing.T) {
	p := span{Start: 0, End: 100}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 70},
		{"nested", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"overlapping", []span{{Start: 10, End: 40}, {Start: 30, End: 70}}, 40},
		{"clipped", []span{{Start: -10, End: 10}, {Start: 90, End: 120}}, 80},
		{"outside", []span{{Start: 100, End: 120}}, 100},
		{"covering", []span{{Start: 0, End: 100}, {Start: 50, End: 60}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(p, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "a b", "x/y", "-lead", "é", string(make([]byte, 65))} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, l := range [][]nameUnit{endToEnd, perLayer} {
		for _, nu := range l {
			if !validMetricName(nu.name) || seen[nu.name] {
				t.Errorf("metric %q is invalid or repeated", nu.name)
			}
			seen[nu.name] = true
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the metrics this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to perfbench:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []nameUnit
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}
