package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"anubis/internal/obs"
	"anubis/internal/serve"
)

// The serve workload drives an in-process serve.Server over loopback
// HTTP with two closed-loop clients, one per tenant. Each client repeats
// examples/kvstore's HTTP run (that example is package main, so its
// table layout and workload are reimplemented here) over seed-drawn keys:
// a Put is probe GETs plus one block PUT, Get and Delete probe the same
// way, and every run ends with a crash, a recovery and a full re-read.
const (
	serveTenantBytes = 8 << 20
	kvInserts        = 2000 // keys a cycle inserts: examples/kvstore's default -n
	serveTraceCycles = 2    // cycles per client in each traced-run phase
	traceHeader      = "X-Perfbench-Trace"
)

var serveTenants = []struct{ id, scheme string }{{"agit", "agit-plus"}, {"asit", "asit"}}

// serveEnv is one running server: the registry, its HTTP front end on
// a loopback listener, and the goroutine serving it.
type serveEnv struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{} // closed when hs.Serve has returned
}

func startServe(tr *tracer) (*serveEnv, error) {
	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = traceHandler(tr, h)
	}
	e := &serveEnv{srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(e.done)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	// The set-up tenants are created through the registry, not over
	// HTTP: loopback round trips would make setup_s measure the host's
	// scheduling more than tenant creation. Every later cycle re-creates
	// its tenant over HTTP.
	for _, t := range serveTenants {
		if err := srv.CreateTenant(t.id, serve.TenantConfig{Scheme: t.scheme, MemoryBytes: serveTenantBytes}); err != nil {
			_ = e.stop() // the create error is the one to report
			return nil, fmt.Errorf("create tenant %s: %w", t.id, err)
		}
	}
	return e, nil
}

// tenantConfig is the body of a tenant-create request.
func tenantConfig(scheme string) []byte {
	b, _ := json.Marshal(serve.TenantConfig{Scheme: scheme, MemoryBytes: serveTenantBytes}) // a plain struct always encodes
	return b
}

// stop shuts the HTTP server and the tenant registry down and waits
// for the serving goroutine to return.
func (e *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	<-e.done
	if err2 := e.srv.Shutdown(""); err == nil {
		err = err2
	}
	return err
}

// traceHandler wraps the server's handler with one span per request,
// joined to the client's span through traceHeader ("trace/parent").
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A missing or malformed header leaves the server span unjoined
		// (trace and parent 0) rather than failing the request.
		var tid, parent uint64
		if v := r.Header.Get(traceHeader); v != "" {
			a, b, _ := strings.Cut(v, "/")
			tid, _ = strconv.ParseUint(a, 10, 64)
			parent, _ = strconv.ParseUint(b, 10, 64)
		}
		sp := tr.begin("serve.handler."+opOf(r), tid, parent)
		next.ServeHTTP(w, r)
		tr.end(sp)
	})
}

func opOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.Contains(p, "/block/") && r.Method == http.MethodGet:
		return "read_block"
	case strings.Contains(p, "/block/"):
		return "write_block"
	case strings.Count(p, "/") == 3:
		return p[strings.LastIndex(p, "/")+1:]
	}
	return "tenant"
}

// client is one closed-loop connection to the server.
type client struct {
	base, tenant string
	hc           *http.Client
	tr           *tracer

	attempted, failed int
	blockNS           latHist   // round trip of every block GET/PUT
	recoverNS         []float64 // round trip of every POST /recover
	problems          []string
}

func newClient(base, tenant string, tr *tracer) *client {
	return &client{base: base, tenant: tenant, tr: tr,
		hc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// call issues one request and reads the whole response. Every non-2xx
// answer counts as a failed request.
func (c *client) call(method, path string, body []byte, op string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	tid := c.tr.newTrace()
	sp := c.tr.begin("client."+op, tid, 0)
	if c.tr != nil {
		req.Header.Set(traceHeader, fmt.Sprintf("%d/%d", tid, sp.ID))
	}
	c.attempted++
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.failed++
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	c.tr.end(sp)
	if err != nil {
		c.failed++
		return 0, nil, err
	}
	if resp.StatusCode/100 != 2 {
		c.failed++ // a shed (429) included
	}
	switch op {
	case "read_block", "write_block":
		c.blockNS.add(uint64(d))
	case "recover":
		c.recoverNS = append(c.recoverNS, float64(d))
	}
	return resp.StatusCode, b, nil
}

// expect issues a request and retries a shed (429) a bounded number of
// times; any other status than want is an error.
func (c *client) expect(method, path string, body []byte, op string, want int) ([]byte, error) {
	for attempt := 0; attempt < 50; attempt++ {
		code, b, err := c.call(method, path, body, op)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
		if code == http.StatusTooManyRequests {
			time.Sleep(time.Millisecond)
			continue
		}
		if code != want {
			return nil, fmt.Errorf("%s %s: status %d: %s", method, path, code, b)
		}
		return b, nil
	}
	return nil, fmt.Errorf("%s %s: still shed after 50 attempts", method, path)
}

// --- kvstore table ------------------------------------------------------

const (
	kvKeyBytes   = 20
	kvValueBytes = 32
	kvEmpty      = 0
	kvLive       = 1
	kvDead       = 2
	blockBytes   = 64
)

var errNotFound = errors.New("key not found")

// kvTable is examples/kvstore's linear-probing table, one record per
// 64-byte block: [state][keyLen][valLen][pad][20B key][32B value][8B seq].
type kvTable struct {
	c       *client
	buckets uint64
	seq     uint64
}

func (kv *kvTable) read(b uint64) ([]byte, error) {
	rec, err := kv.c.expect("GET", fmt.Sprintf("/t/%s/block/%d", kv.c.tenant, b), nil, "read_block", http.StatusOK)
	if err == nil && len(rec) != blockBytes {
		err = fmt.Errorf("block %d: read %d bytes", b, len(rec))
	}
	return rec, err
}

func (kv *kvTable) write(b uint64, rec []byte) error {
	_, err := kv.c.expect("PUT", fmt.Sprintf("/t/%s/block/%d", kv.c.tenant, b), rec, "write_block", http.StatusOK)
	return err
}

func (kv *kvTable) hash(key []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h % kv.buckets
}

func (kv *kvTable) probe(key []byte, stopAtFree bool) (uint64, []byte, error) {
	h := kv.hash(key)
	for i := uint64(0); i < kv.buckets; i++ {
		b := (h + i) % kv.buckets
		rec, err := kv.read(b)
		if err != nil {
			return 0, nil, err
		}
		switch rec[0] {
		case kvEmpty:
			if stopAtFree {
				return b, rec, nil
			}
			return 0, nil, errNotFound
		case kvLive:
			if kl := int(rec[1]); kl == len(key) && bytes.Equal(rec[4:4+kl], key) {
				return b, rec, nil
			}
		case kvDead:
			if stopAtFree {
				return b, rec, nil
			}
		}
	}
	return 0, nil, errors.New("table full")
}

func (kv *kvTable) put(key, val []byte) error {
	b, _, err := kv.probe(key, false)
	if errors.Is(err, errNotFound) {
		b, _, err = kv.probe(key, true)
	}
	if err != nil {
		return err
	}
	kv.seq++
	rec := make([]byte, blockBytes)
	rec[0], rec[1], rec[2] = kvLive, byte(len(key)), byte(len(val))
	copy(rec[4:4+kvKeyBytes], key)
	copy(rec[4+kvKeyBytes:4+kvKeyBytes+kvValueBytes], val)
	binary.LittleEndian.PutUint64(rec[4+kvKeyBytes+kvValueBytes:], kv.seq)
	return kv.write(b, rec)
}

func (kv *kvTable) get(key []byte) ([]byte, error) {
	_, rec, err := kv.probe(key, false)
	if err != nil {
		return nil, err
	}
	return rec[4+kvKeyBytes : 4+kvKeyBytes+int(rec[2])], nil
}

func (kv *kvTable) del(key []byte) error {
	b, rec, err := kv.probe(key, false)
	if err != nil {
		return err
	}
	rec[0] = kvDead
	return kv.write(b, rec)
}

// --- closed-loop client ---------------------------------------------------

// kvClient repeats examples/kvstore's HTTP run (its runHTTP) on one
// tenant and checks every key the run committed.
type kvClient struct {
	*client
	scheme  string
	rng     *rand.Rand
	cycles  int
	digests []string // tenant state digest at the end of each cycle
}

func newKVClient(base, tenant, scheme string, seed int64, idx int, tr *tracer) *kvClient {
	return &kvClient{client: newClient(base, tenant, tr), scheme: scheme,
		rng: rand.New(rand.NewSource(seed*7919 + int64(idx)))}
}

func (k *kvClient) fail(format string, args ...any) {
	k.failed++
	k.problems = append(k.problems, fmt.Sprintf("tenant %s cycle %d: ", k.tenant, k.cycles)+fmt.Sprintf(format, args...))
}

// drawKeys draws n distinct keys in kvstore's "user:" form, each with a
// kvstore-style balance value.
func (k *kvClient) drawKeys(n int) (keys, vals [][]byte) {
	seen := map[int64]bool{}
	for len(keys) < n {
		x := k.rng.Int63n(1e10)
		if seen[x] {
			continue
		}
		seen[x] = true
		keys = append(keys, []byte(fmt.Sprintf("user:%010d", x)))
		vals = append(vals, []byte(fmt.Sprintf("balance=%08d", k.rng.Intn(1e8))))
	}
	return keys, vals
}

// cycle is one kvstore run: open the store on its tenant (every cycle
// after the first closes the tenant and creates it anew, as a new
// kvstore process on a fresh store would), insert kvInserts keys,
// update every 5th key of the first quarter, tombstone every 7th key
// from 1 to a tenth, crash and recover the tenant through the API,
// verify every key, and audit.
func (k *kvClient) cycle() error {
	if k.cycles > 0 {
		if _, err := k.expect("DELETE", "/t/"+k.tenant, nil, "close", http.StatusOK); err != nil {
			return err
		}
		if _, err := k.expect("PUT", "/t/"+k.tenant, tenantConfig(k.scheme), "create", http.StatusCreated); err != nil {
			return err
		}
	}
	k.cycles++
	b, err := k.expect("GET", "/t/"+k.tenant, nil, "info", http.StatusOK)
	var info struct {
		Blocks uint64 `json:"blocks"`
	}
	if err == nil {
		err = json.Unmarshal(b, &info)
	}
	if err != nil || info.Blocks == 0 {
		return fmt.Errorf("tenant info %s: blocks=%d %v", b, info.Blocks, err)
	}
	kv := &kvTable{c: k.client, buckets: info.Blocks}

	keys, vals := k.drawKeys(kvInserts)
	n := len(keys)
	for i := range keys {
		if err := kv.put(keys[i], vals[i]); err != nil {
			return fmt.Errorf("put %s: %w", keys[i], err)
		}
	}
	for i := 0; i < n/4; i += 5 {
		vals[i] = []byte("balance=updated!")
		if err := kv.put(keys[i], vals[i]); err != nil {
			return fmt.Errorf("update %s: %w", keys[i], err)
		}
	}
	deleted := map[int]bool{}
	for i := 1; i < n/10; i += 7 {
		if err := kv.del(keys[i]); err != nil {
			return fmt.Errorf("delete %s: %w", keys[i], err)
		}
		deleted[i] = true
	}

	if _, err := k.expect("POST", "/t/"+k.tenant+"/crash", nil, "crash", http.StatusOK); err != nil {
		return err
	}
	if _, err := k.expect("POST", "/t/"+k.tenant+"/recover", nil, "recover", http.StatusOK); err != nil {
		return err
	}
	for i, key := range keys {
		got, err := kv.get(key)
		switch {
		case err != nil && !errors.Is(err, errNotFound):
			return fmt.Errorf("get %s: %w", key, err)
		case deleted[i] && err == nil:
			k.fail("deleted key %s resurfaced as %q", key, got)
		case deleted[i]:
		case err != nil:
			k.fail("committed key %s lost", key)
		case !bytes.Equal(got, vals[i]):
			k.fail("key %s reads %q, committed %q", key, got, vals[i])
		}
	}

	b, err = k.expect("POST", "/t/"+k.tenant+"/audit", nil, "audit", http.StatusOK)
	var a struct {
		OK         bool     `json:"ok"`
		Violations []string `json:"violations"`
	}
	if err == nil {
		err = json.Unmarshal(b, &a)
	}
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if !a.OK {
		k.fail("audit: %v", a.Violations)
	}
	b, err = k.expect("GET", "/t/"+k.tenant+"/digest", nil, "digest", http.StatusOK)
	if err != nil {
		return err
	}
	k.digests = append(k.digests, strings.TrimSpace(string(b)))
	return nil
}

// run repeats cycles until the deadline, or, with cycles > 0, runs
// exactly that many. A cycle that starts before the deadline runs to
// its end, so every run verifies what it committed.
func (k *kvClient) run(deadline time.Time, cycles int) error {
	for cycles > 0 && k.cycles < cycles || cycles == 0 && time.Now().Before(deadline) {
		if err := k.cycle(); err != nil {
			return fmt.Errorf("cycle %d: %w", k.cycles, err)
		}
	}
	return nil
}

// servePhase runs one client per tenant concurrently and folds their
// counts into out. It returns the clients and the phase's wall time.
func servePhase(out *outcome, e *serveEnv, seed int64, tr *tracer, deadline time.Time, cycles int) ([]*kvClient, time.Duration) {
	clients := make([]*kvClient, len(serveTenants))
	errs := make([]error, len(serveTenants))
	var wg sync.WaitGroup
	start := time.Now()
	for i, t := range serveTenants {
		clients[i] = newKVClient(e.base, t.id, t.scheme, seed, i, tr)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = clients[i].run(deadline, cycles)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for i, c := range clients {
		c.hc.CloseIdleConnections()
		out.attempted += c.attempted
		out.failed += c.failed
		out.problems = append(out.problems, c.problems...)
		if errs[i] != nil {
			out.fail("tenant %s: %v", c.tenant, errs[i])
		}
	}
	return clients, wall
}

func runServe(o options, out *outcome) error {
	var e *serveEnv
	err := out.timeSetup(func() (err error) {
		e, err = startServe(nil)
		return err
	}, func() error {
		err := e.stop()
		e = nil
		return err
	})
	if err != nil {
		if e != nil {
			_ = e.stop() // the set-up error is the one to report
		}
		return err
	}

	rt, cpu0 := startRuntimeCount(), cpuTime()
	clients, wall := servePhase(out, e, o.seed, nil, time.Now().Add(o.seconds), 0)
	cpu := cpuTime() - cpu0
	var lat latHist
	var rec []float64
	for _, c := range clients {
		lat.merge(&c.blockNS)
		rec = append(rec, c.recoverNS...)
	}
	n := int(lat.count)
	rt.stop(out, float64(n))
	var opWall obs.Hist
	var shed, reqs uint64
	e.srv.Telemetry().Update(func(r *obs.Registry) {
		for _, op := range []string{"read_block", "write_block"} {
			if h := r.Histogram(obs.Label("anubis_serve_op_wall_ns", "op", op)); h != nil {
				opWall.Merge(h)
			}
		}
		shed, reqs = r.CounterValue("anubis_serve_shed_total"), r.CounterValue("anubis_serve_requests_total")
	})
	if err := e.stop(); err != nil {
		return err
	}
	out.check(len(rec) > 0, "serve run made no recovery; run longer than %v", o.seconds)

	// Throughput is block requests per CPU-second of the whole process,
	// clients included: CPU time leaves out what the hypervisor stole,
	// wall time does not. The wall-clock rate is printed beside it.
	p50 := lat.quantile(0.5) / 1e3
	out.e2e(float64(n)/cpu.Seconds(), 1, p50, n)
	out.named("serve_req_per_s", float64(n)/wall.Seconds(), "req/s", 1)
	out.named("serve_p90_us", lat.quantile(0.9)/1e3, "us", n)
	out.named("serve_p50_us", p50, "us", n)
	out.named("serve_p99_us", lat.quantile(0.99)/1e3, "us", n)
	out.note("serve: %d block requests in %.3f s wall, %.3f s CPU, %d kvstore cycles of %d keys",
		n, wall.Seconds(), cpu.Seconds(), len(rec), kvInserts)
	out.named("serve_recover_ms", median(rec)/1e6, "ms", len(rec))
	if n > 10 {
		q := float64(n-10) / float64(n)
		out.note("serve latency tail: p%.4f = %.1f us over %d requests", 100*q, lat.quantile(q)/1e3, n)
	}
	out.layer("serve.op_wall_us_p50", float64(opWall.Percentile(50))/1e3, "us", int(opWall.Count))
	out.layer("serve.op_wall_us_p99", float64(opWall.Percentile(99))/1e3, "us", int(opWall.Count))
	out.layer("serve.shed_ratio", ratio(shed, shed+reqs), "ratio", int(shed+reqs))

	if o.trace {
		return traceServe(o, out)
	}
	return nil
}

// traceServe runs the same fixed number of cycles untraced, traced,
// and untraced again, each on a fresh server, and checks that all three
// leave every cycle's tenant in the same state.
func traceServe(o options, out *outcome) error {
	var walls []time.Duration
	tr := newTracer()
	for _, t := range []*tracer{nil, tr, nil} {
		e, err := startServe(t)
		if err != nil {
			return err
		}
		clients, wall := servePhase(out, e, o.seed, t, time.Time{}, serveTraceCycles)
		walls = append(walls, wall)
		var d []string
		for _, c := range clients {
			d = append(d, c.digests...)
		}
		out.digests = append(out.digests, fmt.Sprint(d))
		if err := e.stop(); err != nil {
			return err
		}
	}

	handler := map[uint64]int64{}
	var clientSpans []span
	tr.mu.Lock()
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "serve.handler.") {
			handler[s.Trace] = s.dur()
		} else if s.Name == "client.read_block" || s.Name == "client.write_block" {
			clientSpans = append(clientSpans, s)
		}
	}
	tr.mu.Unlock()
	var httpNS []float64
	for _, s := range clientSpans {
		if h, ok := handler[s.Trace]; ok {
			httpNS = append(httpNS, float64(s.dur()-h))
		}
	}
	for _, op := range []string{"read_block", "write_block"} {
		d := tr.byName("serve.handler." + op)
		out.layer("serve.handler_us_p50."+op, median(d)/1e3, "us", len(d))
		out.layer("serve.handler_us_p99."+op, quantile(d, 0.99)/1e3, "us", len(d))
	}
	rec := tr.byName("serve.handler.recover")
	out.layer("serve.handler_ms_p50.recover", median(rec)/1e6, "ms", len(rec))
	out.layer("serve.http_us_p50", median(httpNS)/1e3, "us", len(httpNS))
	out.overhead(walls[1], (walls[0]+walls[2])/2)
	return tr.write(o.spanPath())
}
