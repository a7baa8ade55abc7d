package obs

import (
	"encoding/json"
	"net/http"
)

// The embedded dashboard: a single dependency-free HTML page served
// from the telemetry endpoint at /dash. It polls /debug/dash.json — a
// structured snapshot of every counter, gauge, and histogram plus the
// flight-recorder tail — and renders, with nothing but inline SVG:
//
//   - per-tenant request / shed / recovery totals and rates,
//   - latency histogram sparklines (one per op family),
//   - stacked attribution bars for run stalls (component= labels) and
//     recovery phases (phase= labels),
//   - the live event tail.
//
// It intentionally has no framework, no external fetch, and no build
// step: curl /dash > snapshot.html produces a self-contained artifact
// (CI uploads exactly that from serve_smoke.sh).

// dashSnapshot is the /debug/dash.json payload.
type dashSnapshot struct {
	Counters      map[string]uint64  `json:"counters"`
	Gauges        map[string]float64 `json:"gauges"`
	Hists         map[string]*Hist   `json:"hists"`
	Events        []Event            `json:"events"`
	RecorderTotal uint64             `json:"recorder_total"`
}

func (t *Telemetry) serveDashJSON(w http.ResponseWriter) {
	t.mu.Lock()
	snap := NewRegistry()
	snap.Merge(t.reg)
	rec := t.rec
	t.mu.Unlock()
	t.processGauges(snap)
	payload := dashSnapshot{
		Counters:      snap.counters,
		Gauges:        snap.gauges,
		Hists:         snap.hists,
		Events:        rec.Snapshot(),
		RecorderTotal: rec.Total(),
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(payload)
}

func (t *Telemetry) serveDash(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashHTML))
}

const dashHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>anubis dashboard</title>
<style>
  body { font: 13px/1.45 ui-monospace, SFMono-Regular, Menlo, monospace;
         margin: 1.2em; background: #111; color: #ddd; }
  h1 { font-size: 16px; } h2 { font-size: 13px; margin: 1.4em 0 .4em;
       color: #9cf; border-bottom: 1px solid #333; }
  table { border-collapse: collapse; }
  th, td { padding: 2px 10px 2px 0; text-align: right; }
  th { color: #888; font-weight: normal; } td:first-child, th:first-child { text-align: left; }
  .bar { display: flex; height: 16px; width: 480px; border: 1px solid #333; }
  .bar div { height: 100%; }
  .legend span { margin-right: 1em; white-space: nowrap; }
  .chip { display: inline-block; width: 9px; height: 9px; margin-right: 3px; }
  #events td { text-align: left; }
  .muted { color: #777; } .err { color: #f77; }
  #status { color: #888; float: right; }
</style>
</head>
<body>
<h1>anubis dashboard <span id="status">connecting…</span></h1>
<h2>tenants</h2><div id="tenants" class="muted">no tenant traffic yet</div>
<h2>latency sparklines</h2><div id="lat" class="muted">no histograms yet</div>
<h2>stall attribution</h2><div id="stalls" class="muted">no stall data (run with a probe / bench sweep)</div>
<h2>recovery-phase attribution</h2><div id="phases" class="muted">no recoveries yet</div>
<h2>event tail</h2><div id="events" class="muted">no flight recorder attached</div>
<script>
"use strict";
const PALETTE = ["#4c9","#c94","#49c","#c49","#9c4","#94c","#cc6","#6cc","#c66","#8a8"];
let prev = null, prevAt = 0;

// parseName splits 'fam{k="v",...}' into [family, labels]; label values
// are unescaped per the Prometheus exposition format (\\, \", \n).
function parseName(name) {
  const i = name.indexOf("{");
  if (i < 0) return [name, {}];
  const fam = name.slice(0, i), labels = {};
  const body = name.slice(i + 1, name.lastIndexOf("}"));
  const re = /(\w+)="((?:[^"\\]|\\.)*)"/g;
  let m;
  while ((m = re.exec(body)) !== null)
    labels[m[1]] = m[2].replace(/\\(.)/g, (_, c) => c === "n" ? "\n" : c);
  return [fam, labels];
}
function fmtNS(ns) {
  if (ns >= 1e9) return (ns / 1e9).toFixed(2) + "s";
  if (ns >= 1e6) return (ns / 1e6).toFixed(2) + "ms";
  if (ns >= 1e3) return (ns / 1e3).toFixed(1) + "µs";
  return ns + "ns";
}
function stackedBar(byKey) {
  const total = Object.values(byKey).reduce((a, b) => a + b, 0);
  if (total <= 0) return null;
  const keys = Object.keys(byKey).sort();
  let bar = '<div class="bar">', legend = '<div class="legend">';
  keys.forEach((k, i) => {
    const c = PALETTE[i % PALETTE.length], pct = 100 * byKey[k] / total;
    if (pct > 0) bar += '<div style="width:' + pct + '%;background:' + c + '" title="' +
      k + " " + pct.toFixed(1) + '%"></div>';
    legend += '<span><span class="chip" style="background:' + c + '"></span>' +
      k + " " + pct.toFixed(1) + "% (" + fmtNS(byKey[k]) + ")</span>";
  });
  return bar + "</div>" + legend + "</div>";
}
function sparkline(h) {
  const buckets = h.buckets, n = buckets.length;
  let last = 0;
  for (let i = 0; i < n; i++) if (buckets[i] > 0) last = i;
  const max = Math.max(1, ...buckets);
  const w = 4, svgW = (last + 1) * w;
  let svg = '<svg width="' + svgW + '" height="28" style="vertical-align:middle">';
  for (let i = 0; i <= last; i++) {
    const hh = Math.round(26 * buckets[i] / max);
    svg += '<rect x="' + i * w + '" y="' + (28 - hh) + '" width="' + (w - 1) +
      '" height="' + hh + '" fill="#4c9"/>';
  }
  return svg + "</svg>";
}
function esc(s) { return String(s).replace(/&/g, "&amp;").replace(/</g, "&lt;"); }

function render(snap) {
  const c = snap.counters || {}, hists = snap.hists || {};
  const now = Date.now() / 1000, dt = prev ? Math.max(0.2, now - prevAt) : 0;

  // Per-tenant table.
  const tenants = {};
  for (const [name, v] of Object.entries(c)) {
    const [fam, labels] = parseName(name);
    if (!labels.tenant) continue;
    const t = tenants[labels.tenant] || (tenants[labels.tenant] = { req: 0, shed: 0, rec: 0, reqNames: [] });
    if (fam === "anubis_serve_tenant_requests_total") { t.req += v; t.reqNames.push(name); }
    if (fam === "anubis_serve_tenant_shed_total") t.shed += v;
    if (fam === "anubis_serve_tenant_recoveries_total") t.rec += v;
  }
  const ids = Object.keys(tenants).sort();
  if (ids.length) {
    let html = "<table><tr><th>tenant</th><th>requests</th><th>req rate</th><th>sheds</th><th>recoveries</th></tr>";
    for (const id of ids) {
      const t = tenants[id];
      let rps = "";
      if (prev) {
        let cur = 0, old = 0;
        for (const n of t.reqNames) { cur += c[n] || 0; old += (prev.counters || {})[n] || 0; }
        rps = ((cur - old) / dt).toFixed(1) + "/s";
      }
      html += "<tr><td>" + esc(id) + "</td><td>" + t.req + "</td><td>" + rps +
        "</td><td>" + t.shed + "</td><td>" + t.rec + "</td></tr>";
    }
    document.getElementById("tenants").outerHTML = '<div id="tenants">' + html + "</table></div>";
  }

  // Latency sparklines.
  const lat = Object.keys(hists).sort();
  if (lat.length) {
    let html = "<table>";
    for (const name of lat) {
      const h = hists[name];
      html += "<tr><td>" + esc(name) + "</td><td>" + sparkline(h) + "</td><td>n=" + h.count +
        "</td><td>mean=" + fmtNS(h.count ? h.sum_ns / h.count : 0) + "</td><td>max=" + fmtNS(h.max_ns) + "</td></tr>";
    }
    document.getElementById("lat").outerHTML = '<div id="lat">' + html + "</table></div>";
  }

  // Attribution stacked bars: any family carrying component=/phase= labels.
  const stalls = {}, phases = {};
  for (const [name, v] of Object.entries(c)) {
    const [, labels] = parseName(name);
    if (labels.component) stalls[labels.component] = (stalls[labels.component] || 0) + v;
    if (labels.phase) phases[labels.phase] = (phases[labels.phase] || 0) + v;
  }
  const sb = stackedBar(stalls);
  if (sb) document.getElementById("stalls").outerHTML = '<div id="stalls">' + sb + "</div>";
  const pb = stackedBar(phases);
  if (pb) document.getElementById("phases").outerHTML = '<div id="phases">' + pb + "</div>";

  // Event tail (newest last, last 50).
  const evs = (snap.events || []).slice(-50);
  if (evs.length) {
    let html = "<table><tr><th>seq</th><th>time</th><th>kind</th><th>tenant</th><th>op</th><th>detail</th></tr>";
    for (const e of evs) {
      const ts = new Date(e.wall_ns / 1e6).toLocaleTimeString();
      let detail = e.reason || "";
      if (e.dur_ns) detail += (detail ? " " : "") + fmtNS(e.dur_ns);
      if (e.err) detail += ' <span class="err">' + esc(e.err) + "</span>";
      if (e.recovery_phase_ns) {
        const top = Object.entries(e.recovery_phase_ns).filter(([, v]) => v > 0)
          .sort((a, b) => b[1] - a[1]).map(([k, v]) => k + "=" + fmtNS(v)).join(" ");
        detail += ' <span class="muted">' + esc(top) + "</span>";
      }
      html += "<tr><td>" + e.seq + '</td><td class="muted">' + ts + "</td><td>" + esc(e.kind) +
        "</td><td>" + esc(e.tenant || "") + "</td><td>" + esc(e.op || "") + "</td><td>" + detail + "</td></tr>";
    }
    document.getElementById("events").outerHTML = '<div id="events">' + html + "</table></div>";
  }

  prev = snap; prevAt = now;
}

async function tick() {
  try {
    const r = await fetch("/debug/dash.json");
    render(await r.json());
    document.getElementById("status").textContent =
      "live · " + new Date().toLocaleTimeString();
  } catch (e) {
    document.getElementById("status").textContent = "disconnected";
  }
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
`
