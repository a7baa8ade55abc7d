// kvstore: a persistent key-value store on secure NVM — the paper's
// motivating scenario ("an in-memory database system, where a crash
// occurs right after a transaction is committed... the whole Merkle
// Tree must be recovered first to be able to verify integrity before
// completing any new transactions or enquiries", §1).
//
// The store maps fixed-size keys to values in a hash table laid out
// directly on the protected memory: each 64-byte block holds one
// record, so every Put is an atomic, encrypted, integrity-protected,
// persistent transaction. After a crash, the store is usable again the
// moment Anubis recovery finishes — milliseconds of metadata repair
// instead of hours of Merkle tree reconstruction.
//
// Two modes share the same store and workload:
//
//	go run ./examples/kvstore
//	    local mode — the store runs directly on an in-process System
//	    and the crash is a real power-failure simulation.
//
//	go run ./examples/kvstore -addr 127.0.0.1:8080 -tenant alice
//	    HTTP mode — every block read/write is a request to a running
//	    anubis-serve tenant. 429 back-pressure responses are retried
//	    with a bounded backoff (and counted); the crash and recovery
//	    are triggered through the service API while other tenants
//	    keep serving. This doubles as the serve smoke-test client.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"anubis"
)

const (
	keyBytes   = 20
	valueBytes = 32
	// record layout: [1B state][1B keyLen][1B valLen][1B pad]
	//                [20B key][32B value][8B sequence] = 64B
	stateEmpty = 0
	stateLive  = 1
	stateDead  = 2
)

// Mem is the block device the store runs on: the in-process
// anubis.System satisfies it directly, and httpMem adapts a remote
// anubis-serve tenant to it.
type Mem interface {
	ReadBlock(block uint64) ([]byte, error)
	WriteBlock(block uint64, data []byte) error
	NumBlocks() uint64
}

// KV is a linear-probing hash table over a secure NVM block device.
type KV struct {
	mem     Mem
	buckets uint64
	seq     uint64
}

// OpenKV creates (or re-opens after recovery) a store using every block
// of the device as a bucket.
func OpenKV(mem Mem) *KV {
	return &KV{mem: mem, buckets: mem.NumBlocks()}
}

func (kv *KV) hash(key []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h % kv.buckets
}

func record(state byte, key, val []byte, seq uint64) []byte {
	// Callers validate sizes; truncating here would alias distinct keys
	// (a 276-byte key stores keyLen byte(276)==20 and its first 20
	// bytes — indistinguishable from a legitimate 20-byte key).
	if len(key) > keyBytes || len(val) > valueBytes {
		panic("kvstore: record overflow")
	}
	rec := make([]byte, anubis.BlockSize)
	rec[0] = state
	rec[1] = byte(len(key))
	rec[2] = byte(len(val))
	copy(rec[4:4+keyBytes], key)
	copy(rec[4+keyBytes:4+keyBytes+valueBytes], val)
	binary.LittleEndian.PutUint64(rec[4+keyBytes+valueBytes:], seq)
	return rec
}

// ErrFull reports an out-of-space store.
var ErrFull = errors.New("kvstore: table full")

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("kvstore: key not found")

// ErrTooLarge reports a key over 20 bytes or a value over 32 bytes —
// the record format cannot hold them, and silently truncating would
// make unrelated keys collide.
var ErrTooLarge = errors.New("kvstore: key or value exceeds record capacity")

// probe finds the bucket holding key, or the first free bucket.
func (kv *KV) probe(key []byte, stopAtFree bool) (uint64, []byte, error) {
	h := kv.hash(key)
	for i := uint64(0); i < kv.buckets; i++ {
		b := (h + i) % kv.buckets
		rec, err := kv.mem.ReadBlock(b)
		if err != nil {
			return 0, nil, err
		}
		switch rec[0] {
		case stateEmpty:
			if stopAtFree {
				return b, rec, nil
			}
			return 0, nil, ErrNotFound
		case stateLive:
			kl := int(rec[1])
			if kl == len(key) && bytes.Equal(rec[4:4+kl], key) {
				return b, rec, nil
			}
		case stateDead:
			if stopAtFree {
				return b, rec, nil
			}
		}
	}
	return 0, nil, ErrFull
}

// Put inserts or updates a key. Each Put is one atomic block write:
// data, encryption counter, Merkle path, and shadow-table updates
// commit together through the controller's persistent registers.
func (kv *KV) Put(key, val []byte) error {
	if len(key) == 0 || len(key) > keyBytes || len(val) > valueBytes {
		return ErrTooLarge
	}
	// Prefer updating an existing live record.
	b, _, err := kv.probe(key, false)
	if err != nil {
		if !errors.Is(err, ErrNotFound) {
			return err
		}
		b, _, err = kv.probe(key, true)
		if err != nil {
			return err
		}
	}
	kv.seq++
	return kv.mem.WriteBlock(b, record(stateLive, key, val, kv.seq))
}

// Get returns the value for a key.
func (kv *KV) Get(key []byte) ([]byte, error) {
	if len(key) == 0 || len(key) > keyBytes {
		return nil, ErrTooLarge
	}
	_, rec, err := kv.probe(key, false)
	if err != nil {
		return nil, err
	}
	return rec[4+keyBytes : 4+keyBytes+int(rec[2])], nil
}

// Delete removes a key (tombstone).
func (kv *KV) Delete(key []byte) error {
	if len(key) == 0 || len(key) > keyBytes {
		return ErrTooLarge
	}
	b, rec, err := kv.probe(key, false)
	if err != nil {
		return err
	}
	rec[0] = stateDead
	return kv.mem.WriteBlock(b, rec)
}

// --- HTTP block device (anubis-serve client) -------------------------------

// httpMem adapts one anubis-serve tenant to the Mem interface. Every
// 429 (admission-control shed) is retried with a short bounded backoff
// and counted; other non-2xx responses are errors.
type httpMem struct {
	base   string // e.g. "http://127.0.0.1:8080"
	tenant string
	c      *http.Client
	blocks uint64
	sheds  int
}

// tenantInfo mirrors the service's tenant-info JSON.
type tenantInfo struct {
	Scheme      string `json:"scheme"`
	MemoryBytes uint64 `json:"memory_bytes"`
	Blocks      uint64 `json:"blocks"`
}

// openHTTPMem creates (or reattaches to) the tenant and learns its
// block count from the service.
func openHTTPMem(addr, tenant, scheme string, memBytes uint64) (*httpMem, error) {
	m := &httpMem{
		base:   "http://" + addr,
		tenant: tenant,
		c:      &http.Client{Timeout: 30 * time.Second},
	}
	cfg, _ := json.Marshal(map[string]any{"scheme": scheme, "memory_bytes": memBytes})
	resp, err := m.retrying(func() (*http.Request, error) {
		return http.NewRequest("PUT", m.url("/t/"+tenant), bytes.NewReader(cfg))
	})
	if err != nil {
		return nil, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated:
	case http.StatusConflict: // already exists (e.g. restarted client) — use it
	default:
		return nil, fmt.Errorf("kvstore: create tenant %s: %s (%s)", tenant, resp.Status, body)
	}
	var info tenantInfo
	if err := m.getJSON("/t/"+tenant, &info); err != nil {
		return nil, err
	}
	m.blocks = info.Blocks
	return m, nil
}

func (m *httpMem) url(path string) string { return m.base + path }

// retrying issues the request, retrying 429 responses with a short
// bounded backoff. The factory runs once per attempt so the body
// reader is fresh each time.
func (m *httpMem) retrying(mk func() (*http.Request, error)) (*http.Response, error) {
	const maxAttempts = 50
	for attempt := 1; ; attempt++ {
		req, err := mk()
		if err != nil {
			return nil, err
		}
		resp, err := m.c.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			return resp, nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		m.sheds++
		if attempt >= maxAttempts {
			return nil, fmt.Errorf("kvstore: tenant %s still shedding after %d attempts", m.tenant, attempt)
		}
		// The Retry-After header carries the modeled drain time; a short
		// real-world pause is plenty (virtual queues drain in virtual time).
		time.Sleep(10 * time.Millisecond)
	}
}

func (m *httpMem) getJSON(path string, v any) error {
	resp, err := m.retrying(func() (*http.Request, error) {
		return http.NewRequest("GET", m.url(path), nil)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("kvstore: GET %s: %s (%s)", path, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (m *httpMem) ReadBlock(block uint64) ([]byte, error) {
	resp, err := m.retrying(func() (*http.Request, error) {
		return http.NewRequest("GET", m.url(fmt.Sprintf("/t/%s/block/%d", m.tenant, block)), nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("kvstore: read block %d: %s (%s)", block, resp.Status, body)
	}
	return body, nil
}

func (m *httpMem) WriteBlock(block uint64, data []byte) error {
	resp, err := m.retrying(func() (*http.Request, error) {
		return http.NewRequest("PUT", m.url(fmt.Sprintf("/t/%s/block/%d", m.tenant, block)), bytes.NewReader(data))
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("kvstore: write block %d: %s (%s)", block, resp.Status, body)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

func (m *httpMem) NumBlocks() uint64 { return m.blocks }

// post hits a tenant action endpoint (crash, recover, flush, audit).
func (m *httpMem) post(action string) (string, error) {
	resp, err := m.retrying(func() (*http.Request, error) {
		return http.NewRequest("POST", m.url("/t/"+m.tenant+"/"+action), nil)
	})
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("kvstore: POST %s: %s (%s)", action, resp.Status, body)
	}
	return string(bytes.TrimSpace(body)), nil
}

// --- workload --------------------------------------------------------------

// runWorkload commits n transactions with churn: updates to the first
// quarter (every 5th) and tombstones in keys 1..n/10 (every 7th).
func runWorkload(kv *KV, n int) error {
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("user:%05d", i))
		val := []byte(fmt.Sprintf("balance=%08d", i*37))
		if err := kv.Put(key, val); err != nil {
			return fmt.Errorf("put %s: %w", key, err)
		}
	}
	for i := 0; i < n/4; i += 5 {
		if err := kv.Put([]byte(fmt.Sprintf("user:%05d", i)), []byte("balance=updated!")); err != nil {
			return err
		}
	}
	for i := 1; i < n/10; i += 7 {
		if err := kv.Delete([]byte(fmt.Sprintf("user:%05d", i))); err != nil {
			return err
		}
	}
	return nil
}

// verifyWorkload checks every committed transaction against what
// runWorkload(n) wrote. It returns the number of verified live records.
func verifyWorkload(kv *KV, n int) (int, error) {
	checked := 0
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("user:%05d", i))
		val, err := kv.Get(key)
		deleted := i >= 1 && i < n/10 && (i-1)%7 == 0
		switch {
		case deleted:
			if !errors.Is(err, ErrNotFound) {
				return checked, fmt.Errorf("deleted key %s resurfaced: %v", key, err)
			}
		case err != nil:
			return checked, fmt.Errorf("committed key %s lost: %w", key, err)
		default:
			want := fmt.Sprintf("balance=%08d", i*37)
			if i < n/4 && i%5 == 0 {
				want = "balance=updated!"
			}
			if len(val) < len(want) || string(val[:len(want)]) != want {
				return checked, fmt.Errorf("key %s corrupted: %q", key, val)
			}
			checked++
		}
	}
	return checked, nil
}

func main() {
	var (
		addr   = flag.String("addr", "", "anubis-serve address; empty runs the in-process store")
		tenant = flag.String("tenant", "kv", "tenant id (HTTP mode)")
		n      = flag.Int("n", 2000, "transactions to commit")
		scheme = flag.String("scheme", "asit", "persistence scheme: "+strings.Join(anubis.SchemeNames(), " | "))
		mem    = flag.Uint64("mem", 8<<20, "protected capacity in bytes")
		crash  = flag.Bool("crash", true, "power-fail after the workload and recover")
	)
	flag.Parse()
	sc, tree, err := anubis.ParseScheme(*scheme)
	if err != nil {
		log.Fatal(err)
	}
	if *addr == "" {
		runLocal(anubis.Config{Scheme: sc, Tree: tree, MemoryBytes: *mem}, *n, *crash)
		return
	}
	runHTTP(*addr, *tenant, *scheme, *mem, *n, *crash)
}

func runLocal(cfg anubis.Config, n int, crash bool) {
	mem, err := anubis.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	kv := OpenKV(mem)

	fmt.Printf("committing %d transactions...\n", n)
	if err := runWorkload(kv, n); err != nil {
		log.Fatal(err)
	}
	if crash {
		fmt.Println("power failure right after the last commit!")
		mem.Crash()
		rep, err := mem.Recover()
		if err != nil {
			log.Fatal("recovery failed: ", err)
		}
		fmt.Printf("store recovered in %s (modeled): %d shadow entries, %d nodes restored\n",
			anubis.FormatDuration(rep.ModeledNS), rep.EntriesScanned, rep.NodesRebuilt)
		kv = OpenKV(mem) // re-open over the recovered memory
	}
	checked, err := verifyWorkload(kv, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all %d surviving records verified after crash recovery ✓\n", checked)
}

func runHTTP(addr, tenant, scheme string, memBytes uint64, n int, crash bool) {
	m, err := openHTTPMem(addr, tenant, scheme, memBytes)
	if err != nil {
		log.Fatal(err)
	}
	kv := OpenKV(m)

	fmt.Printf("tenant %s: committing %d transactions over HTTP...\n", tenant, n)
	if err := runWorkload(kv, n); err != nil {
		log.Fatal(err)
	}
	if crash {
		fmt.Printf("tenant %s: power failure via API!\n", tenant)
		if _, err := m.post("crash"); err != nil {
			log.Fatal(err)
		}
		rep, err := m.post("recover")
		if err != nil {
			log.Fatal("recovery failed: ", err)
		}
		fmt.Printf("tenant %s recovered: %s\n", tenant, rep)
		kv = OpenKV(m)
	}
	checked, err := verifyWorkload(kv, n)
	if err != nil {
		log.Fatal(err)
	}
	if audit, err := m.post("audit"); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("tenant %s audit: %s\n", tenant, audit)
	}
	fmt.Printf("tenant %s: all %d surviving records verified (%d sheds absorbed) ✓\n",
		tenant, checked, m.sheds)
}
