package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// DiagnoseRequest is the body of POST /v1/diagnose: an observed
// failing behavior matrix to match against one stored dictionary.
type DiagnoseRequest struct {
	// Dict is the dictionary id: the file stem of <dir>/<id>.dict.
	Dict string `json:"dict"`
	// Method selects the error function by any name core.ParseMethod
	// accepts: "Alg_rev" (also "rev" or empty, the default), the Alg_sim
	// variants "Alg_sim-I"/"Alg_sim-II"/"Alg_sim-III" (also "I"/"II"/
	// "III"), or an extension error function "L1", "chebyshev" or
	// "loglik".
	Method string `json:"method,omitempty"`
	// Behavior is the 0-1 matrix B, one string per output row, one
	// '0'/'1' byte per pattern column.
	Behavior []string `json:"behavior"`
	// K limits the returned ranking (0 = all suspects).
	K int `json:"k,omitempty"`
	// AutoK selects K from the ranked score curve's largest gap
	// instead; MaxK caps the search (default 10).
	AutoK bool `json:"auto_k,omitempty"`
	MaxK  int  `json:"max_k,omitempty"`
}

// RankedEntry is one candidate of a diagnosis answer.
type RankedEntry struct {
	Rank  int     `json:"rank"`
	Arc   int     `json:"arc"`
	Score float64 `json:"score"`
}

// DiagnoseResponse is the answer to one diagnosis request. Identical
// requests produce byte-identical responses: ranking ties break on
// ascending arc ID inside core, struct fields marshal in declaration
// order, and nothing here depends on wall clock or scheduling.
type DiagnoseResponse struct {
	Dict     string        `json:"dict"`
	Method   string        `json:"method"`
	Suspects int           `json:"suspects"`
	Patterns int           `json:"patterns"`
	Clk      float64       `json:"clk"`
	K        int           `json:"k"`
	AutoK    bool          `json:"auto_k,omitempty"`
	Gap      float64       `json:"gap,omitempty"`
	Ranking  []RankedEntry `json:"ranking"`
}

// maxRequestBytes bounds a diagnosis request body.
const maxRequestBytes = 8 << 20

// validID accepts dictionary ids that map to plain file stems: no
// separators, no dot-runs, nothing the filesystem could interpret.
func validID(id string) bool {
	if id == "" || len(id) > 128 || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// behaviorPool recycles the per-request behavior matrices. Shapes vary
// across dictionaries, so pooled values are Reset to the request's
// shape on checkout; Reset reuses the backing array whenever it is
// large enough, which makes the steady-state diagnosis path free of
// per-request matrix allocations once the pool has warmed up to the
// largest resident dictionary.
var behaviorPool = sync.Pool{
	New: func() any { return &core.Behavior{} },
}

// parseBehavior converts the row strings into a pooled core.Behavior
// of the dictionary's shape, a 64-pattern word at a time. The caller
// must return it with behaviorPool.Put once diagnosis is done — the
// matrix never escapes into the response.
func parseBehavior(rowStrs []string, rows, cols int) (*core.Behavior, error) {
	if len(rowStrs) != rows {
		return nil, fmt.Errorf("behavior has %d rows, dictionary expects %d outputs", len(rowStrs), rows)
	}
	b := behaviorPool.Get().(*core.Behavior)
	b.Reset(rows, cols)
	for i, row := range rowStrs {
		if len(row) != cols {
			behaviorPool.Put(b)
			return nil, fmt.Errorf("behavior row %d has %d columns, dictionary expects %d patterns", i, len(row), cols)
		}
		for w := 0; w < b.WordsPerRow(); w++ {
			v, bad := packWord(row[w*64 : min(cols, w*64+64)])
			if bad >= 0 {
				behaviorPool.Put(b)
				j := w*64 + bad
				return nil, fmt.Errorf("behavior row %d column %d: %q is not '0' or '1'", i, j, row[j])
			}
			b.SetWord(i, w, v)
		}
	}
	return b, nil
}

// packWord packs up to 64 '0'/'1' bytes into one word, byte l into bit
// l. It returns the index of the first other byte, or -1.
//
//ddd:hot
func packWord(s string) (uint64, int) {
	var v uint64
	l := 0
	// Eight bytes at a time: XOR with '0' maps '0' and '1' to 0 and 1
	// and every other byte to something else, and the multiply gathers
	// byte k's low bit into bit 56+k. A chunk with another byte is left
	// to the byte loop, which finds it.
	for ; l+8 <= len(s); l += 8 {
		x := uint64(s[l]) | uint64(s[l+1])<<8 | uint64(s[l+2])<<16 | uint64(s[l+3])<<24 |
			uint64(s[l+4])<<32 | uint64(s[l+5])<<40 | uint64(s[l+6])<<48 | uint64(s[l+7])<<56
		x ^= 0x3030303030303030
		if x&^0x0101010101010101 != 0 {
			break
		}
		v |= x * 0x0102040810204080 >> 56 << l
	}
	for ; l < len(s); l++ {
		d := s[l] - '0'
		if d > 1 {
			return 0, l
		}
		v |= uint64(d) << l
	}
	return v, -1
}

// diagnoseOne executes one request against a resident dictionary.
func diagnoseOne(ent *Entry, req *DiagnoseRequest) (*DiagnoseResponse, int, string) {
	method, ok := core.ParseMethod(req.Method)
	if !ok {
		return nil, http.StatusBadRequest, fmt.Sprintf("unknown method %q", req.Method)
	}
	rows, cols := ent.Dict.Shape()
	b, err := parseBehavior(req.Behavior, rows, cols)
	if err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	// Rank only the candidates the answer can hold: K, or under auto_k
	// the max_k + 1 scores AutoK compares (min first, so a huge max_k
	// cannot overflow).
	k, maxK := req.K, req.MaxK
	if req.AutoK {
		if maxK <= 0 {
			maxK = 10
		}
		k = min(maxK, len(ent.Dict.Suspects)-1) + 1
	}
	ranked := ent.Dict.Diagnose(b, method, k)
	// Diagnose copies everything it needs out of b; recycle it before
	// building the response.
	behaviorPool.Put(b)

	resp := &DiagnoseResponse{
		Dict:     ent.ID,
		Method:   method.String(),
		Suspects: len(ent.Dict.Suspects),
		Patterns: len(ent.Dict.Patterns),
		Clk:      ent.Dict.Clk,
	}
	if req.AutoK {
		k, resp.Gap = core.AutoK(ranked, method, maxK)
		resp.AutoK = true
	}
	if k <= 0 || k > len(ranked) {
		k = len(ranked)
	}
	resp.K = k
	resp.Ranking = make([]RankedEntry, k)
	for i, r := range ranked[:k] {
		resp.Ranking[i] = RankedEntry{Rank: i + 1, Arc: int(r.Arc), Score: r.Score}
	}
	return resp, 0, ""
}

// writeJSON emits v as compact JSON. Marshal errors cannot occur for
// the fixed response types, so they map to a plain 500.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data)
	_, _ = w.Write([]byte("\n"))
}

type errorBody struct {
	Error string `json:"error"`
	// Code is a stable machine-readable discriminator for errors a
	// client reacts to programmatically (backpressure, drain), so
	// retry logic never string-matches the human message.
	Code string `json:"code,omitempty"`
	// RetrySeconds mirrors the Retry-After header for clients that
	// only look at the body.
	RetrySeconds int `json:"retry_after_s,omitempty"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// Retry-After derivation. A hardcoded 1 s hint made every shed client
// retry on the same beat regardless of how deep the queue actually
// was; the hint now scales with the work already waiting, so hedging
// routers and load generators back off proportionally to the overload
// they observe.
const (
	// minRetryAfterSeconds is the floor: the header's integer
	// granularity cannot honestly promise less than one second.
	minRetryAfterSeconds = 1
	// drainRetryAfterSeconds is the floor while the pool drains: the
	// process is going away, so the client should give a replacement
	// backend time to come up rather than hammer a dying one.
	drainRetryAfterSeconds = 2
	// maxRetryAfterSeconds caps the hint; beyond this the queue depth
	// says "find another replica", not "wait longer".
	maxRetryAfterSeconds = 8
)

// retryAfterSeconds derives the backoff hint from the pool's current
// state: one second of floor plus roughly the queue's drain time in
// worker-batches (depth/workers), clamped to [min, max]. Header and
// JSON body always carry this same value.
func (s *Server) retryAfterSeconds() int {
	secs := minRetryAfterSeconds + s.pool.Depth()/s.cfg.Workers
	if s.pool.Draining() && secs < drainRetryAfterSeconds {
		secs = drainRetryAfterSeconds
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return secs
}

// writeRetryable emits a load-shed or deadline error (429
// backpressure, 503 drain, 504 deadline) with a Retry-After header
// and a machine-readable body — the same contract for every response
// a client should react to by backing off and retrying. The header
// and the body's retry_after_s always carry the same derived value.
func writeRetryable(w http.ResponseWriter, status int, code, msg string, retrySecs int) {
	w.Header().Set("Retry-After", strconv.Itoa(retrySecs))
	writeJSON(w, status, errorBody{Error: msg, Code: code, RetrySeconds: retrySecs})
}

// pathID returns the request's {id} path value. An invalid id answers
// 400 and reports false.
func pathID(w http.ResponseWriter, r *http.Request) (string, bool) {
	id := r.PathValue("id")
	if !validID(id) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid dictionary id %q", id))
		return "", false
	}
	return id, true
}

// admit runs the slow-handler fault site for a diagnose request whose
// deadline context is ctx: the injected delay burns the request's own
// deadline, and a delay past it answers 504 before anything is
// enqueued. It reports whether the request may go on.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) bool {
	if faultSlowHandler.Hit() {
		time.Sleep(time.Duration(faultSlowHandler.Param(100)) * time.Millisecond)
		if ctx.Err() != nil {
			s.writeDeadline(w)
			return false
		}
	}
	return true
}

// writeDeadline answers 504 for a request whose deadline expired or
// whose client went away, and counts the cancellation.
func (s *Server) writeDeadline(w http.ResponseWriter) {
	s.cancellations.Add(1)
	writeRetryable(w, http.StatusGatewayTimeout, "deadline", "request deadline exceeded", s.retryAfterSeconds())
}

// writeShed answers a request the pool refused: 503 while it drains,
// 429 when its queue is full.
func (s *Server) writeShed(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrPoolDraining) {
		writeRetryable(w, http.StatusServiceUnavailable, "draining", "server shutting down", s.retryAfterSeconds())
		return
	}
	writeRetryable(w, http.StatusTooManyRequests, "busy", "server busy, retry later", s.retryAfterSeconds())
}

// handleDiagnose implements POST /v1/diagnose: validate, enqueue into
// the same-dictionary batcher, and wait for the worker or the request
// deadline, whichever comes first.
func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	var req DiagnoseRequest
	if !decodeDiagnose(w, r, &req) {
		return
	}
	if !validID(req.Dict) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid dictionary id %q", req.Dict))
		return
	}
	// The context carries both the deadline and the client disconnect
	// (r.Context dies when the peer goes away): either way the select
	// below stops waiting, the 504/cancellation is recorded, and the
	// worker skips the job the moment it notices j.ctx is dead.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	if !s.admit(ctx, w) {
		return
	}
	job := &diagJob{ctx: ctx, req: &req, done: make(chan struct{})}
	if err := s.batch.enqueue(req.Dict, job); err != nil {
		s.writeShed(w, err)
		return
	}
	select {
	case <-job.done:
		if job.status != 0 {
			writeError(w, job.status, job.errMsg)
			return
		}
		writeJSON(w, http.StatusOK, job.resp)
	case <-ctx.Done():
		s.writeDeadline(w)
	}
}

// maxBatchItems bounds one degraded-batch request; the body size cap
// already bounds bytes, this bounds per-item bookkeeping.
const maxBatchItems = 256

// BatchRequest is the body of POST /v1/diagnose/batch: independent
// diagnosis requests answered in one round trip with per-item status.
type BatchRequest struct {
	Requests []DiagnoseRequest `json:"requests"`
}

// BatchItem is one request's outcome inside a batch response: either
// Response (Status 200) or an error triple. Failed items never fail
// the batch — that is the degraded-mode contract.
type BatchItem struct {
	Index    int               `json:"index"`
	Status   int               `json:"status"`
	Error    string            `json:"error,omitempty"`
	Code     string            `json:"code,omitempty"`
	Response *DiagnoseResponse `json:"response,omitempty"`
}

// BatchResponse is the answer to a degraded batch: one item per
// request, in request order, plus the failure count. For a fixed
// request and fault configuration the document is byte-deterministic:
// items are processed in index order and carry no timing.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
	Failed  int         `json:"failed"`
}

// handleDiagnoseBatch implements POST /v1/diagnose/batch: degraded
// diagnosis over many requests. A dictionary that fails to load fails
// only the items that reference it (skip-and-report); the rest of the
// batch still answers. The whole batch runs as one pool job, so batch
// traffic competes for worker slots on the same terms as single
// requests.
func (s *Server) handleDiagnoseBatch(w http.ResponseWriter, r *http.Request) {
	var breq BatchRequest
	if !decodeBatch(w, r, &breq) {
		return
	}
	if len(breq.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(breq.Requests) > maxBatchItems {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch has %d items, limit is %d", len(breq.Requests), maxBatchItems))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	if !s.admit(ctx, w) {
		return
	}
	// Buffered so the worker never blocks publishing a result the
	// handler stopped waiting for.
	done := make(chan *BatchResponse, 1)
	if err := s.pool.Submit(func() { done <- s.runDegradedBatch(ctx, breq.Requests) }); err != nil {
		s.writeShed(w, err)
		return
	}
	select {
	case resp := <-done:
		writeJSON(w, http.StatusOK, resp)
	case <-ctx.Done():
		s.writeDeadline(w)
	}
}

// runDegradedBatch executes a batch on a pool worker: items in index
// order, one cache get per distinct dictionary, and a per-batch memo
// of failed dictionaries so a broken id is reported (not retried) on
// every later item that names it.
func (s *Server) runDegradedBatch(ctx context.Context, reqs []DiagnoseRequest) *BatchResponse {
	resp := &BatchResponse{Results: make([]BatchItem, len(reqs))}
	ents := make(map[string]*Entry)
	loadErrs := make(map[string]error)
	for i := range reqs {
		req := &reqs[i]
		item := &resp.Results[i]
		item.Index = i
		if ctx.Err() != nil {
			item.Status, item.Code, item.Error = http.StatusGatewayTimeout, "deadline", "request deadline exceeded"
			resp.Failed++
			continue
		}
		if !validID(req.Dict) {
			item.Status, item.Error = http.StatusBadRequest, fmt.Sprintf("invalid dictionary id %q", req.Dict)
			resp.Failed++
			continue
		}
		ent, ok := ents[req.Dict]
		if !ok {
			if lerr, failed := loadErrs[req.Dict]; failed {
				item.Status, item.Code, item.Error = loadErrStatus(lerr), "load_failed", lerr.Error()
				resp.Failed++
				continue
			}
			var err error
			ent, err = s.cache.GetCtx(ctx, req.Dict)
			if err != nil && ctx.Err() != nil {
				// The load ended on this batch's own deadline: answer as the
				// loop top does, and memoize nothing about the dictionary.
				item.Status, item.Code, item.Error = http.StatusGatewayTimeout, "deadline", "request deadline exceeded"
				resp.Failed++
				continue
			}
			if err != nil {
				loadErrs[req.Dict] = err
				item.Status, item.Code, item.Error = loadErrStatus(err), "load_failed", err.Error()
				resp.Failed++
				continue
			}
			ents[req.Dict] = ent
		}
		r2, status, msg := diagnoseOne(ent, req)
		if status != 0 {
			item.Status, item.Error = status, msg
			resp.Failed++
			continue
		}
		item.Status, item.Response = http.StatusOK, r2
	}
	return resp
}

// dictInfo is one /v1/dicts entry and dictList the whole document, as
// a replica and the router both render it.
type dictInfo struct {
	ID     string `json:"id"`
	Cached bool   `json:"cached"`
}

type dictList struct {
	Dicts []dictInfo `json:"dicts"`
}

// handleDicts implements GET /v1/dicts: the dictionary files on disk,
// flagged with cache residency.
func (s *Server) handleDicts(w http.ResponseWriter, r *http.Request) {
	des, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reading dictionary directory: "+err.Error())
		return
	}
	out := dictList{Dicts: []dictInfo{}}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".dict") {
			continue
		}
		id := strings.TrimSuffix(name, ".dict")
		if !validID(id) {
			continue
		}
		out.Dicts = append(out.Dicts, dictInfo{ID: id, Cached: s.cache.Contains(id)})
	}
	sort.Slice(out.Dicts, func(i, j int) bool { return out.Dicts[i].ID < out.Dicts[j].ID })
	writeJSON(w, http.StatusOK, out)
}

// handleDictInfo implements GET /v1/dicts/{id}: load (or hit) the
// dictionary and describe it. The load runs under the request
// deadline, so a slow or retrying load answers 504 when it expires.
func (s *Server) handleDictInfo(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	ent, err := s.cache.GetCtx(ctx, id)
	if err != nil {
		if ctx.Err() != nil {
			s.writeDeadline(w)
			return
		}
		writeError(w, loadErrStatus(err), err.Error())
		return
	}
	rows, cols := ent.Dict.Shape()
	writeJSON(w, http.StatusOK, struct {
		ID       string  `json:"id"`
		Inputs   int     `json:"inputs"`
		Outputs  int     `json:"outputs"`
		Patterns int     `json:"patterns"`
		Suspects int     `json:"suspects"`
		Clk      float64 `json:"clk"`
		Bytes    int64   `json:"bytes"`
	}{ent.ID, ent.NInputs, rows, cols, len(ent.Dict.Suspects), ent.Dict.Clk, ent.Size})
}

// loadErrStatus maps loader failures to HTTP statuses.
func loadErrStatus(err error) int {
	if errors.Is(err, fs.ErrNotExist) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// handleHealthz answers GET /healthz on a replica and on the router.
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	ready := s.ready.Load()
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, struct {
		Ready bool `json:"ready"`
	}{ready})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
