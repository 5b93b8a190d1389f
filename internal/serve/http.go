package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"strconv"
	"time"

	"repro/fivm"
	"repro/fivm/client"
	"repro/internal/value"
	"repro/internal/wal"
)

// The v1 wire protocol (see docs/API.md for full schemas):
//
//	POST /v1/update   {"updates":[{"rel":"R","tuple":[1,2.5,"x"],"mult":1}]}
//	                  ?wait=1 blocks until the batch is applied and a
//	                  snapshot reflecting it is published; with
//	                  &partial=1 the ack carries that snapshot's partial
//	                  and its applied counter; 429 +
//	                  Retry-After when a target ingest queue is full
//	GET  /v1/predict  ?attr=value&... one query parameter per feature
//	                  (analysis engines with a label only; "stale" is
//	                  reserved, as on a router, and ignored)
//	GET  /v1/model    the published model, rendered per engine kind
//	GET  /v1/stats    serving + maintenance counters, snapshot version
//	                  and age, per-shard queue depths, shed counts
//	GET  /v1/viewtree the maintained view tree (text)
//	GET  /v1/healthz  liveness + staleness (snapshot version/age, queues)
//	GET  /v1/partial  the latest snapshot's result relation in the binary
//	                  partial format, for cross-shard merging; the
//	                  X-Fivm-Applied header carries the cumulative
//	                  applied-update counter the body covers
//	GET  /metrics     Prometheus text exposition (unversioned by scrape
//	                  convention)
//
// Every error response uses one envelope: {"error": "...", "code":
// "...", "retry_after_ms": n} (retry_after_ms only on retryable
// errors, mirroring the Retry-After header).

// Error codes of the v1 envelope. The code is the stable programmatic
// discriminator; the error text is for humans and may change.
const (
	CodeBadRequest     = "bad_request"      // 400: malformed body or values
	CodeTimeout        = "timeout"          // 408: ?wait=1 outlived the request context
	CodeOverloaded     = "overloaded"       // 429: admission control shed the batch
	CodeBatchExpired   = "batch_id_expired" // 409: an identified batch older than the dedup window
	CodeUnprocessable  = "unprocessable"    // 422: the engine cannot answer (e.g. no predictor)
	CodeUnavailable    = "unavailable"      // 503: closed, crashed, or no result yet
	CodeNotImplemented = "not_implemented"  // 501: engine lacks the capability (e.g. no codec)
	CodeCategoriesFull = "categories_full"  // 507: the category dictionary cannot take a new value
)

// NewHandler exposes a Server over HTTP/JSON. The surface is identical
// for every hosted engine kind; /v1/model renders the engine's own
// model shape (ridge weights for analysis, rows for count/float,
// the compound aggregate for COVAR).
//
// Every route is instrumented with a latency histogram and
// status-class counters (fivm_http_request_seconds,
// fivm_http_requests_total).
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.method+" "+rt.path, s.instrument(rt.path, rt.h))
	}
	return mux
}

// routes is the one table of the HTTP surface: NewHandler serves these,
// and the metrics pre-register each path's series, so recording stays
// allocation-free and no route can lack its series.
var routes = []struct {
	method, path string
	h            func(*Server, http.ResponseWriter, *http.Request)
}{
	{"POST", "/v1/update", (*Server).handleUpdate},
	{"GET", "/v1/predict", func(s *Server, w http.ResponseWriter, r *http.Request) { ServePredict(w, r, s.readSnapshot) }},
	{"GET", "/v1/model", func(s *Server, w http.ResponseWriter, r *http.Request) { ServeModel(w, r, s.readSnapshot) }},
	{"GET", "/v1/stats", (*Server).handleStats},
	{"GET", "/v1/viewtree", (*Server).handleViewTree},
	{"GET", "/v1/healthz", (*Server).handleHealthz},
	{"GET", "/v1/partial", (*Server).handlePartial},
	{"GET", "/metrics", (*Server).handleMetrics},
}

// statusRecorder captures the response code for the status-class
// counters; handlers that never call WriteHeader implicitly return 200.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the route's pre-registered latency
// histogram and status counters.
func (s *Server) instrument(route string, h func(*Server, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	hist := s.met.httpLat[route]
	codes := s.met.httpCodes[route]
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(s, &rec, r)
		hist.Observe(time.Since(t0).Seconds())
		class := rec.code/100 - 2
		if class < 0 || class >= len(codeClasses) {
			class = len(codeClasses) - 1
		}
		codes[class].Inc()
	}
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	_, ups, err := DecodeRequest(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	// An X-Fivm-Batch-Id header makes the request idempotent: a
	// redelivery of the same ID (with the identical body — see
	// IngestBatch) is answered from the dedup table, not applied again.
	var id wal.BatchID
	if h := r.Header.Get(client.BatchIDHeader); h != "" {
		if id, err = wal.ParseBatchID(h); err != nil {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
	}
	done, deduped, err := s.IngestBatch(id, ups)
	if err != nil {
		var oe *OverloadError
		switch {
		case errors.As(err, &oe):
			// Backpressure, not failure: tell the client when to come
			// back instead of blocking its connection behind the backlog.
			WriteRetryError(w, http.StatusTooManyRequests, CodeOverloaded, err, time.Second)
		case errors.Is(err, ErrClosed) || errors.Is(err, ErrCrashed):
			WriteError(w, http.StatusServiceUnavailable, CodeUnavailable, err)
		case errors.Is(err, ErrBatchExpired):
			WriteError(w, http.StatusConflict, CodeBatchExpired, err)
		default:
			WriteRefused(w, err)
		}
		return
	}
	q := r.URL.Query()
	applied := false
	if wait, _ := strconv.ParseBool(q.Get("wait")); wait {
		select {
		case <-done:
			applied = true
		case <-r.Context().Done():
			WriteError(w, http.StatusRequestTimeout, CodeTimeout, r.Context().Err())
			return
		}
	}
	ack := map[string]any{"accepted": len(ups), "applied": applied}
	if deduped > 0 {
		// Routers subtract deduped from what they count as newly acked,
		// keeping per-shard acked counters equal to applied ones even
		// when a retry races a delivery that actually succeeded.
		ack["deduped"] = deduped
	}
	if partial, _ := strconv.ParseBool(q.Get("partial")); partial && applied {
		// The snapshot loaded after done closed covers this batch. A
		// router holds the partial and merges it without asking again.
		snap := s.Snapshot()
		if data, err := snap.Partial(); err == nil {
			ack["partial"] = data
			ack["partial_applied"] = snap.Covered
		}
	}
	WriteJSON(w, http.StatusAccepted, ack)
}

// ReadSource yields what a read answers from: the model and the
// envelope merged into a 2xx body — {"version": n} on a worker,
// {"cluster": {...}} on a router. An error answers 503.
type ReadSource func(r *http.Request) (fivm.Model, map[string]any, error)

// readSnapshot is a worker's ReadSource: the published snapshot.
func (s *Server) readSnapshot(*http.Request) (fivm.Model, map[string]any, error) {
	snap := s.Snapshot()
	return snap.Model, map[string]any{"version": snap.Version}, nil
}

// ServeModel answers GET /v1/model from src: the model's own JSON
// shape with "kind" and the envelope merged in. NewHandler and the
// cluster router both serve it, so a worker and a router render alike.
// It returns the status it wrote.
func ServeModel(w http.ResponseWriter, r *http.Request, src ReadSource) int {
	model, env, err := src(r)
	var body any
	if err == nil {
		body, err = model.ResultJSON()
	}
	if err != nil {
		WriteError(w, http.StatusServiceUnavailable, CodeUnavailable, err)
		return http.StatusServiceUnavailable
	}
	out, ok := body.(map[string]any)
	if !ok {
		out = map[string]any{"result": body}
	}
	out["kind"] = model.Kind()
	maps.Copy(out, env)
	WriteJSON(w, http.StatusOK, out)
	return http.StatusOK
}

// ServePredict answers GET /v1/predict from src: one query parameter
// per feature ("stale" is reserved and never a feature), answered with
// the prediction, the model's count and the envelope. A model that
// cannot predict from them answers 422. It returns the status it wrote.
func ServePredict(w http.ResponseWriter, r *http.Request, src ReadSource) int {
	model, env, err := src(r)
	if err != nil {
		WriteError(w, http.StatusServiceUnavailable, CodeUnavailable, err)
		return http.StatusServiceUnavailable
	}
	x := make(map[string]value.Value)
	for k, vs := range r.URL.Query() {
		if k != "stale" && len(vs) > 0 {
			x[k] = ParseValue(vs[0])
		}
	}
	p, err := model.Predict(x)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, CodeUnprocessable, err)
		return http.StatusUnprocessableEntity
	}
	out := map[string]any{"prediction": p, "count": model.Count()}
	maps.Copy(out, env)
	WriteJSON(w, http.StatusOK, out)
	return http.StatusOK
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	snap := s.Snapshot()
	var coalesce float64
	if st.Applied > 0 {
		coalesce = float64(st.DeltaTuples) / float64(st.Applied)
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"kind":                 s.Kind(),
		"ingested":             st.Ingested,
		"applied":              st.Applied,
		"shed":                 st.Shed,
		"batches":              st.Batches,
		"delta_tuples":         st.DeltaTuples,
		"coalesce_ratio":       coalesce,
		"snapshots":            st.Snapshots,
		"snapshot_version":     snap.Version,
		"snapshot_age_seconds": time.Since(snap.At).Seconds(),
		"apply_errors":         st.ApplyErrors,
		"last_error":           st.LastError,
		"ridge_unconverged":    st.RidgeUnconverged,
		"categories":           fivm.Categories(),
		"view_updates":         st.View.Updates,
		"view_delta_tuples":    st.View.DeltaTuples,
		"shards":               s.Shards(),
		"wal":                  s.WALStatus(),
		"dedup":                s.DedupStatus(),
	})
}

// handleHealthz is the liveness-and-staleness probe: snapshot version
// and age plus queue depths, shed counts, and durability state, so a
// health check detects a stalled writer, an overloaded shard, or a
// crashed WAL without scraping /metrics. A poisoned pipeline answers
// 503 with ok=false — the process is up but not ingesting.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := s.Snapshot()
	code := http.StatusOK
	ok := true
	if s.CrashError() != nil {
		code = http.StatusServiceUnavailable
		ok = false
	}
	WriteJSON(w, code, map[string]any{
		"ok":                   ok,
		"kind":                 s.Kind(),
		"version":              snap.Version,
		"snapshot_age_seconds": time.Since(snap.At).Seconds(),
		"ingested":             s.ingested.Load(),
		"shed":                 s.shed.Load(),
		"shards":               s.Shards(),
		"wal":                  s.WALStatus(),
	})
}

// handlePartial serves the latest snapshot's Partial, without waiting
// for the writer, and its Covered counter as X-Fivm-Applied, which a
// router checks against its acked counts. Closed or crashed: 503.
func (s *Server) handlePartial(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	err := s.CrashError()
	if s.closed {
		err = ErrClosed
	}
	s.mu.RUnlock()
	if err != nil {
		WriteError(w, http.StatusServiceUnavailable, CodeUnavailable, err)
		return
	}
	snap := s.Snapshot()
	data, err := snap.Partial()
	if err != nil {
		WriteError(w, http.StatusNotImplemented, CodeNotImplemented, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(client.AppliedHeader, strconv.FormatUint(snap.Covered, 10))
	_, _ = w.Write(data)
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.WriteMetrics(w)
}

func (s *Server) handleViewTree(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, s.ViewTree())
}

// WriteJSON writes a JSON response body. Every handler, the cluster
// router's included, answers through it and the two error writers
// below, so both surfaces share one set of wire shapes.
func WriteJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}

// WriteError answers with the uniform v1 error envelope.
func WriteError(w http.ResponseWriter, status int, code string, err error) {
	WriteJSON(w, status, client.ErrorEnvelope{Error: err.Error(), Code: code})
}

// WriteRefused answers a batch an engine's CheckUpdate refused: 507
// categories_full when the category dictionary is full, 400 bad_request
// for anything else. Worker and router admission both answer through it.
func WriteRefused(w http.ResponseWriter, err error) {
	if errors.Is(err, fivm.ErrCategoriesFull) {
		WriteError(w, http.StatusInsufficientStorage, CodeCategoriesFull, err)
		return
	}
	WriteError(w, http.StatusBadRequest, CodeBadRequest, err)
}

// WriteRetryError is WriteError plus retry hints: the Retry-After
// header (whole seconds) and the envelope's retry_after_ms carry the
// same delay.
func WriteRetryError(w http.ResponseWriter, status int, code string, err error, retry time.Duration) {
	w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
	WriteJSON(w, status, client.ErrorEnvelope{Error: err.Error(), Code: code, RetryAfterMS: retry.Milliseconds()})
}
