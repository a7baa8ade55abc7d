#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the multi-tenant service.
#
# Builds anubis-serve and the kvstore client, then exercises the whole
# acceptance scenario against a real server process:
#
#   1. 8 tenants run the kvstore workload concurrently; one of them
#      (t3) power-fails mid-workload via the API and recovers
#      in-process while the other 7 keep serving. t0 and t3 run
#      kvstore's default asit, the other six one recoverable scheme
#      each (strict, triad, agit-plus, osiris, strict-sgx, selective).
#   2. A 9th tenant create is shed with 429 (tenant quota), and a pure
#      write burst trips WPQ back-pressure with 429 + Retry-After.
#   3. Both shed families and the in-process recovery show up in
#      /metrics.
#   4. The dashboard (/dash), its JSON feed, and the flight recorder
#      (/debug/events) serve live observability for all of the above.
#   5. SIGTERM flushes and saves every tenant (dumping the event log to
#      the state dir); a restarted server reattaches all 8 through
#      their schemes' recovery and every tenant audits clean.
#
# Ports are overridable for parallel CI runs:
#   SERVE_SMOKE_ADDR=127.0.0.1:18080 SERVE_SMOKE_METRICS=127.0.0.1:19090
# Set SERVE_SMOKE_ARTIFACTS to a directory to keep the dashboard HTML
# snapshot and the shutdown event-log dump (CI uploads them).
set -euo pipefail
cd "$(dirname "$0")/.."

API=${SERVE_SMOKE_ADDR:-127.0.0.1:18080}
MET=${SERVE_SMOKE_METRICS:-127.0.0.1:19090}
TMP=$(mktemp -d)
SRV_PID=
cleanup() {
  [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
# EXIT covers normal bash termination; INT/TERM make an interrupted CI
# run (or a ^C at the terminal) reap the server and the temp state dir
# too instead of leaking them.
trap cleanup EXIT INT TERM

go build -o "$TMP/anubis-serve" ./cmd/anubis-serve
go build -o "$TMP/kvstore" ./examples/kvstore

start_server() {
  # -events 65536: the 8×400-request workload generates ~10k events, so
  # the default 4096-entry ring would have rotated t3's mid-workload
  # crash/recover out before step 4 reads the tail.
  "$TMP/anubis-serve" -addr "$API" -metrics-addr "$MET" \
    -state-dir "$TMP/state" -max-tenants 8 -events 65536 >>"$TMP/serve.log" 2>&1 &
  SRV_PID=$!
  for _ in $(seq 1 100); do
    if curl -fsS "http://$API/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "FAIL: server never became healthy" >&2
  cat "$TMP/serve.log" >&2
  exit 1
}
start_server

# --- 1: 8 concurrent tenants, one mid-workload crash ------------------------
# t0 (the WPQ-shed target of step 2) and t3 (the crash) keep asit.
schemes=(asit strict triad asit agit-plus osiris strict-sgx selective)
pids=()
for i in $(seq 0 7); do
  crash=false
  [ "$i" -eq 3 ] && crash=true
  "$TMP/kvstore" -addr "$API" -tenant "t$i" -scheme "${schemes[$i]}" -n 400 -mem 1048576 \
    -crash=$crash >"$TMP/client$i.log" 2>&1 &
  pids+=($!)
done
fail=0
for i in $(seq 0 7); do
  if ! wait "${pids[$i]}"; then
    echo "FAIL: client t$i:" >&2
    cat "$TMP/client$i.log" >&2
    fail=1
  fi
done
[ "$fail" -eq 0 ] || exit 1
grep -q "recovered" "$TMP/client3.log" || {
  echo "FAIL: t3 never crashed+recovered mid-workload" >&2
  cat "$TMP/client3.log" >&2
  exit 1
}

# --- 2: quota and back-pressure sheds ---------------------------------------
code=$(curl -s -o /dev/null -w '%{http_code}' -X PUT "http://$API/t/t8")
[ "$code" = 429 ] || { echo "FAIL: 9th tenant create returned $code, want 429" >&2; exit 1; }

burst429=0
for i in $(seq 1 300); do
  code=$(curl -s -o /dev/null -w '%{http_code}' -X PUT \
    --data-binary "burst$i" "http://$API/t/t0/block/$((i % 128))")
  case "$code" in
  200) ;;
  429) burst429=1; break ;;
  *) echo "FAIL: burst write $i returned $code" >&2; exit 1 ;;
  esac
done
[ "$burst429" = 1 ] || { echo "FAIL: 300-write burst never shed with 429" >&2; exit 1; }

# --- 3: sheds and recoveries are accounted in /metrics ----------------------
metrics=$(curl -fsS "http://$MET/metrics")
echo "$metrics" | grep -q 'anubis_serve_tenant_shed_total{tenant="t8",reason="tenant_quota"}' ||
  { echo "FAIL: tenant_quota shed not in /metrics" >&2; exit 1; }
echo "$metrics" | grep -q 'anubis_serve_tenant_shed_total{tenant="t0",reason="wpq"}' ||
  { echo "FAIL: wpq shed not in /metrics" >&2; exit 1; }
echo "$metrics" | grep -q 'anubis_serve_tenant_recoveries_total{tenant="t3"}' ||
  { echo "FAIL: t3 recovery not in /metrics" >&2; exit 1; }

# --- 4: dashboard and flight recorder serve the run live --------------------
dash=$(curl -fsS "http://$MET/dash")
for marker in 'anubis dashboard' 'id="tenants"' 'id="phases"' 'id="events"' '/debug/dash.json'; do
  echo "$dash" | grep -qF "$marker" ||
    { echo "FAIL: /dash missing marker $marker" >&2; exit 1; }
done
curl -fsS "http://$MET/debug/dash.json" |
  python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["counters"] and d["recorder_total"] > 0, d.keys()' ||
  { echo "FAIL: /debug/dash.json unparseable or empty" >&2; exit 1; }
events=$(curl -fsS "http://$MET/debug/events")
# Herestrings, not `echo | grep -q`: grep -q exits at the first match,
# and under pipefail echo's resulting SIGPIPE would read as a failure.
sed -n 1p <<<"$events" | python3 -c 'import json,sys; e=json.loads(sys.stdin.read()); assert "kind" in e and "seq" in e, e' ||
  { echo "FAIL: /debug/events first line is not an event object" >&2; exit 1; }
grep -q '"kind":"recover"' <<<"$events" ||
  { echo "FAIL: t3 recovery never reached the flight recorder" >&2; exit 1; }
grep -q '"kind":"shed"' <<<"$events" ||
  { echo "FAIL: sheds never reached the flight recorder" >&2; exit 1; }
if [ -n "${SERVE_SMOKE_ARTIFACTS:-}" ]; then
  mkdir -p "$SERVE_SMOKE_ARTIFACTS"
  echo "$dash" > "$SERVE_SMOKE_ARTIFACTS/dash.html"
fi

# --- 5: graceful shutdown, restart, audit-clean reattach --------------------
kill -TERM "$SRV_PID"
wait "$SRV_PID"
SRV_PID=
[ -f "$TMP/state/manifest.json" ] || { echo "FAIL: no manifest saved on shutdown" >&2; exit 1; }
[ -s "$TMP/state/events.jsonl" ] || { echo "FAIL: no event-log dump saved on shutdown" >&2; exit 1; }
if [ -n "${SERVE_SMOKE_ARTIFACTS:-}" ]; then
  cp "$TMP/state/events.jsonl" "$SERVE_SMOKE_ARTIFACTS/events.jsonl"
fi

start_server
count=$(curl -fsS "http://$API/tenants" | grep -o '"t[0-9]*"' | wc -l)
[ "$count" -eq 8 ] || { echo "FAIL: restarted server has $count tenants, want 8" >&2; exit 1; }
for i in $(seq 0 7); do
  curl -fsS -X POST "http://$API/t/t$i/audit" | grep -q '"ok":true' ||
    { echo "FAIL: tenant t$i (${schemes[$i]}) audit unclean after restart" >&2; exit 1; }
done
kill -TERM "$SRV_PID"
wait "$SRV_PID"
SRV_PID=

echo "serve smoke ✓ 8 tenants served, t3 crash-recovered mid-workload," \
  "quota+wpq sheds returned 429 and were counted, dashboard+flight" \
  "recorder live, event log dumped on SIGTERM, restart audited clean"
