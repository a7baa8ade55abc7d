package serve

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"anubis"
)

// Handler returns the REST-ish API over the tenant registry:
//
//	GET    /healthz                 liveness
//	GET    /tenants                 sorted tenant ids (JSON array)
//	PUT    /t/{id}                  create tenant (JSON TenantConfig body, may be empty)
//	GET    /t/{id}                  tenant info (scheme, blocks, push budget)
//	DELETE /t/{id}                  close tenant (flushes first)
//	GET    /t/{id}/block/{addr}     read one 64-byte block (binary)
//	PUT    /t/{id}/block/{addr}     write one block (binary body, <= 64 B)
//	POST   /t/{id}/blocks           batched writes {"writes":[{"block":N,"data":"<base64>"}]}
//	GET    /t/{id}/range?off=&n=    read n bytes at byte offset off (binary)
//	PUT    /t/{id}/range?off=       write body bytes at byte offset off
//	POST   /t/{id}/fork?child=      copy-on-write fork into a new tenant
//	POST   /t/{id}/crash            simulate power failure
//	POST   /t/{id}/recover          run recovery (JSON RecoveryReport)
//	POST   /t/{id}/flush            write back dirty metadata
//	POST   /t/{id}/audit            whole-memory integrity check (JSON AuditReport)
//	GET    /t/{id}/stats            accumulated statistics (JSON)
//	GET    /t/{id}/digest           deterministic device-state digest (JSON)
//
// Admission-control rejections surface as 429 with a Retry-After
// header; a crashed tenant answers 409 until POST /recover, and a
// quarantined one 503 until DELETE.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "tenants": len(s.Tenants())})
	})
	mux.HandleFunc("GET /tenants", func(w http.ResponseWriter, r *http.Request) {
		ids := s.Tenants()
		sort.Strings(ids)
		writeJSON(w, http.StatusOK, ids)
	})
	mux.HandleFunc("PUT /t/{id}", s.hCreate)
	mux.HandleFunc("GET /t/{id}", s.hInfo)
	mux.HandleFunc("DELETE /t/{id}", s.hClose)
	mux.HandleFunc("GET /t/{id}/block/{addr}", s.hReadBlock)
	mux.HandleFunc("PUT /t/{id}/block/{addr}", s.hWriteBlock)
	mux.HandleFunc("POST /t/{id}/blocks", s.hWriteBlocks)
	mux.HandleFunc("GET /t/{id}/range", s.hReadRange)
	mux.HandleFunc("PUT /t/{id}/range", s.hWriteRange)
	mux.HandleFunc("POST /t/{id}/fork", s.hFork)
	mux.HandleFunc("POST /t/{id}/crash", s.hCrash)
	mux.HandleFunc("POST /t/{id}/recover", s.hRecover)
	mux.HandleFunc("POST /t/{id}/flush", s.hFlush)
	mux.HandleFunc("POST /t/{id}/audit", s.hAudit)
	mux.HandleFunc("GET /t/{id}/stats", s.hStats)
	mux.HandleFunc("GET /t/{id}/digest", s.hDigest)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr maps registry/admission/controller errors onto HTTP status
// codes. Sheds carry Retry-After (whole seconds, floored at 1 — the
// JSON body has the precise hint in milliseconds).
func writeErr(w http.ResponseWriter, err error) {
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		secs := int(shed.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":          err.Error(),
			"reason":         shed.Reason,
			"retry_after_ms": shed.RetryAfter.Milliseconds(),
		})
	case errors.Is(err, ErrNoTenant):
		writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
	case errors.Is(err, ErrTenantExists):
		writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error()})
	case errors.Is(err, anubis.ErrCrashed):
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": err.Error(), "hint": "tenant is crashed; POST /t/{id}/recover",
		})
	case errors.Is(err, ErrShutdown), errors.Is(err, ErrTenantClosed), errors.Is(err, ErrTenantQuarantined):
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error()})
	case errors.Is(err, ErrBadTenantID):
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
	}
}

func (s *Server) hCreate(w http.ResponseWriter, r *http.Request) {
	var tc TenantConfig
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		writeErr(w, err)
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &tc); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad tenant config: " + err.Error()})
			return
		}
	}
	id := r.PathValue("id")
	if err := s.CreateTenant(id, tc); err != nil {
		var shed *ShedError
		if !errors.As(err, &shed) && !errors.Is(err, ErrTenantExists) &&
			!errors.Is(err, ErrBadTenantID) && !errors.Is(err, ErrShutdown) {
			// Config errors (unknown scheme, bad size) are the client's.
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
			return
		}
		writeErr(w, err)
		return
	}
	info, err := s.TenantInfo(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) hInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.TenantInfo(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) hClose(w http.ResponseWriter, r *http.Request) {
	if err := s.CloseTenant(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"closed": true})
}

func parseAddr(r *http.Request) (uint64, error) {
	return strconv.ParseUint(r.PathValue("addr"), 10, 64)
}

func (s *Server) hReadBlock(w http.ResponseWriter, r *http.Request) {
	addr, err := parseAddr(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad block address"})
		return
	}
	data, err := s.ReadBlock(r.PathValue("id"), addr)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (s *Server) hWriteBlock(w http.ResponseWriter, r *http.Request) {
	addr, err := parseAddr(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad block address"})
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, anubis.BlockSize+1))
	if err != nil {
		writeErr(w, err)
		return
	}
	if len(data) > anubis.BlockSize {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("block write exceeds %d bytes", anubis.BlockSize)})
		return
	}
	if err := s.WriteBlock(r.PathValue("id"), addr, data); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"written": len(data)})
}

// batchWrite is one entry of a POST /t/{id}/blocks body.
type batchWrite struct {
	Block uint64 `json:"block"`
	Data  string `json:"data"` // base64, <= 64 bytes decoded
}

func (s *Server) hWriteBlocks(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Writes []batchWrite `json:"writes"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad batch: " + err.Error()})
		return
	}
	writes := make([]anubis.BlockWrite, len(req.Writes))
	for i, bw := range req.Writes {
		raw, err := base64.StdEncoding.DecodeString(bw.Data)
		if err != nil || len(raw) > anubis.BlockSize {
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error": fmt.Sprintf("batch entry %d: bad or oversized data", i)})
			return
		}
		writes[i].Block = bw.Block
		copy(writes[i].Data[:], raw)
	}
	if err := s.WriteBlocks(r.PathValue("id"), writes); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"written": len(writes)})
}

func (s *Server) hReadRange(w http.ResponseWriter, r *http.Request) {
	off, err1 := strconv.ParseUint(r.URL.Query().Get("off"), 10, 64)
	n, err2 := strconv.Atoi(r.URL.Query().Get("n"))
	if err1 != nil || err2 != nil || n < 0 || n > 8<<20 {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad off/n query"})
		return
	}
	data, err := s.ReadRange(r.PathValue("id"), off, n)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (s *Server) hWriteRange(w http.ResponseWriter, r *http.Request) {
	off, err := strconv.ParseUint(r.URL.Query().Get("off"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad off query"})
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.WriteRange(r.PathValue("id"), off, data); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"written": len(data)})
}

func (s *Server) hFork(w http.ResponseWriter, r *http.Request) {
	child := r.URL.Query().Get("child")
	if err := s.ForkTenant(r.PathValue("id"), child); err != nil {
		writeErr(w, err)
		return
	}
	info, err := s.TenantInfo(child)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) hCrash(w http.ResponseWriter, r *http.Request) {
	if err := s.Crash(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"crashed": true})
}

func (s *Server) hRecover(w http.ResponseWriter, r *http.Request) {
	rep, err := s.Recover(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) hFlush(w http.ResponseWriter, r *http.Request) {
	if err := s.Flush(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"flushed": true})
}

func (s *Server) hAudit(w http.ResponseWriter, r *http.Request) {
	rep, err := s.Audit(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":             rep.OK(),
		"data_blocks":    rep.DataBlocks,
		"counter_blocks": rep.CounterBlocks,
		"tree_nodes":     rep.TreeNodes,
		"violations":     rep.Violations,
	})
}

func (s *Server) hStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.Stats(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) hDigest(w http.ResponseWriter, r *http.Request) {
	d, err := s.Digest(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"digest": fmt.Sprintf("%#016x", d)})
}
