package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Registry is a merge-able collection of named metrics: counters,
// gauges, and log-bucket histograms. It is deliberately NOT safe for
// concurrent use and contains no atomics: each worker owns a private
// registry (or, equivalently, private RunStats/Ledger values that are
// folded into one at reduction time), and Merge combines them
// deterministically — commutatively and associatively — after the
// parallel phase. Serving a registry over HTTP is the Telemetry type's
// job, which guards a published snapshot with a mutex at the serving
// boundary only.
//
// Metric names follow Prometheus conventions and may carry a literal
// label set: `anubis_stall_ns_total{component="crypto"}`. The renderer
// groups metrics by family (the name up to '{') for TYPE lines.
type Registry struct {
	counters map[string]uint64
	gauges   map[string]float64
	hists    map[string]*Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Hist),
	}
}

// Counter adds delta to the named counter (creating it at zero).
func (r *Registry) Counter(name string, delta uint64) {
	r.counters[name] += delta
}

// CounterValue returns the current value of a counter.
func (r *Registry) CounterValue(name string) uint64 { return r.counters[name] }

// Gauge sets the named gauge to v (last write wins; on Merge the
// other registry's value wins, so publish gauges from one place).
func (r *Registry) Gauge(name string, v float64) {
	r.gauges[name] = v
}

// Observe records one sample into the named histogram. Every registry
// histogram holds nanoseconds under a name ending in _ns: the /dash page
// renders each one as a duration. A count goes in a counter.
func (r *Registry) Observe(name string, v uint64) {
	h := r.hists[name]
	if h == nil {
		h = &Hist{}
		r.hists[name] = h
	}
	h.Add(v)
}

// Histogram returns the named histogram (nil if never observed).
func (r *Registry) Histogram(name string) *Hist { return r.hists[name] }

// Merge folds another registry into this one: counters add, gauges
// take the other's value, histograms merge bucket-wise. Merging is
// commutative and associative for counters and histograms (the
// property the parallel reduction relies on); gauges are last-write
// status values and are overwritten.
func (r *Registry) Merge(other *Registry) {
	for k, v := range other.counters {
		r.counters[k] += v
	}
	for k, v := range other.gauges {
		r.gauges[k] = v
	}
	for k, h := range other.hists {
		mine := r.hists[k]
		if mine == nil {
			mine = &Hist{}
			r.hists[k] = mine
		}
		mine.Merge(h)
	}
}

// EscapeLabelValue escapes a raw label value per the Prometheus text
// exposition format: backslash, double-quote, and newline become `\\`,
// `\"`, and `\n`. Everything else — tabs, unicode, control bytes —
// passes through verbatim, which is what the format specifies (and
// where Go's %q over-escapes: `%q` turns a tab into `\t` and é into a
// `\u` sequence, both of which a strict scraper must reject).
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	sb.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	return sb.String()
}

// Label builds a metric name with a literal label set from raw label
// values, escaping each value per the exposition format:
//
//	Label("f", "tenant", `a"b`) == `f{tenant="a\"b"}`
//
// kv alternates key, value; keys must be legal label names already.
// Every label-in-name metric built from externally influenced strings
// must go through Label (or equivalent escaping) — the renderer emits
// names verbatim.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var sb strings.Builder
	sb.Grow(len(name) + 16*len(kv))
	sb.WriteString(name)
	sb.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[i])
		sb.WriteString(`="`)
		sb.WriteString(EscapeLabelValue(kv[i+1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// MergeLedger adds a ledger's components as
// `<prefix>{component="<name>"}` counters.
func (r *Registry) MergeLedger(prefix string, l *Ledger) {
	r.mergeNamed(prefix, "component", compNames[:], l[:])
}

// MergeRecLedger adds a recovery-phase ledger's phases as
// `<prefix>{phase="<name>"}` counters.
func (r *Registry) MergeRecLedger(prefix string, l *RecLedger) {
	r.mergeNamed(prefix, "phase", recPhaseNames[:], l[:])
}

// mergeNamed adds each nonzero entry of a ledger as a counter labelled
// key="<its name>".
func (r *Registry) mergeNamed(prefix, key string, names []string, vals []uint64) {
	for i, v := range vals {
		if v != 0 {
			r.Counter(Label(prefix, key, names[i]), v)
		}
	}
}

// Snapshot returns every metric as a sorted name → value map
// (histograms contribute _count/_sum/_max series). The order and the
// content are deterministic for a given registry state.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+3*len(r.hists))
	for k, v := range r.counters {
		out[k] = float64(v)
	}
	for k, v := range r.gauges {
		out[k] = v
	}
	for k, h := range r.hists {
		out[k+"_count"] = float64(h.Count)
		out[k+"_sum"] = float64(h.Sum)
		out[k+"_max"] = float64(h.Max)
	}
	return out
}

// family returns the metric family name: everything before the label
// braces.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): one `# TYPE` line per family, then the
// samples, all in sorted order. Histograms render as cumulative
// `_bucket{le="..."}` series plus `_sum` and `_count`, with power-of-
// two bucket boundaries matching Hist's layout.
func (r *Registry) WritePrometheus(w io.Writer) {
	writeFamilies(w, r.counters, "counter", func(v uint64) string { return fmt.Sprintf("%d", v) })
	writeFamilies(w, r.gauges, "gauge", formatFloat)

	names := make([]string, 0, len(r.hists))
	for k := range r.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.hists[name]
		fam := family(name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", fam)
		var cum uint64
		for i, c := range h.Buckets {
			cum += c
			if c == 0 && i != len(h.Buckets)-1 {
				continue // keep the exposition compact; cumulative counts stay correct
			}
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", fam, bucketLE(i), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", fam, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", fam, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", fam, h.Count)
	}
}

// bucketLE returns the inclusive upper bound label of Hist bucket i.
func bucketLE(i int) string {
	return fmt.Sprintf("%d", uint64(1)<<uint(i)-1)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// writeFamilies renders one metric kind sorted by name, emitting a
// TYPE line once per family.
func writeFamilies[V uint64 | float64](w io.Writer, m map[string]V, typ string, format func(V) string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	lastFam := ""
	for _, name := range names {
		if f := family(name); f != lastFam {
			fmt.Fprintf(w, "# TYPE %s %s\n", f, typ)
			lastFam = f
		}
		fmt.Fprintf(w, "%s %s\n", name, format(m[name]))
	}
}

// Hist is a power-of-two histogram: bucket 0 counts zeros and bucket
// i >= 1 counts [2^(i-1), 2^i), so a sample's bucket is its
// bits.Len64; the last bucket also takes every larger sample.
// Percentiles are approximated by the geometric midpoint of the
// containing bucket, clamped to Max, which is plenty for comparing
// schemes. sim.Result's request latencies and every Registry histogram
// are Hists. The JSON field names are those of the frozen
// results/BENCH_*.json latency records and feed perfbench's output
// digests, so keep them stable.
type Hist struct {
	Buckets [40]uint64 `json:"buckets"`
	Count   uint64     `json:"count"`
	Sum     uint64     `json:"sum_ns"`
	Max     uint64     `json:"max_ns"`
}

// Add records one sample.
func (h *Hist) Add(v uint64) {
	h.Buckets[min(bits.Len64(v), len(h.Buckets)-1)]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Merge folds other into h, as if every sample of other had been
// Added to h: bucket-wise and counter-wise addition, max of maxima.
// Forked crash/recovery trials record their own histograms and merge
// them into the sweep aggregate; Registry.Merge merges per-worker
// histograms the same way.
func (h *Hist) Merge(other *Hist) {
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
	h.Count += other.Count
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
}

// Mean returns the average sample.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Percentile approximates the p-th percentile (0 < p <= 100): the
// geometric midpoint of the bucket holding the ceil(Count·p/100)-th
// smallest sample, clamped to Max.
func (h *Hist) Percentile(p float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(float64(h.Count) * p / 100))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			lo := uint64(1) << uint(i-1)
			return min(lo+lo/2, h.Max) // geometric midpoint of [2^(i-1), 2^i)
		}
	}
	return h.Max
}

// Summary renders a compact summary, each value followed by unit.
func (h *Hist) Summary(unit string) string {
	return fmt.Sprintf("n=%d mean=%.0f%s p50=%d%s p95=%d%s p99=%d%s max=%d%s",
		h.Count, h.Mean(), unit, h.Percentile(50), unit, h.Percentile(95), unit,
		h.Percentile(99), unit, h.Max, unit)
}
