package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/fivm"
	"repro/fivm/client"
	"repro/internal/serve"
	"repro/internal/wal"
)

// Handler exposes the router over the same v1 wire protocol as one
// worker — a cluster is a drop-in replacement for a single fivm-serve
// from the client's point of view:
//
//	POST /v1/update   sub-batched to the owning shards, acked only when
//	                  every touched shard acks (applied + WAL-logged)
//	GET  /v1/model    per-shard partials ring-merged; 503 unless every
//	                  shard covers this router's acked writes, or
//	                  ?stale=1 to merge the reachable shards and flag
//	                  the gap in the "cluster" envelope
//	GET  /v1/predict  prediction from the merged model (?stale=1 as
//	                  above)
//	GET  /v1/stats    aggregated counters plus per-worker detail
//	GET  /v1/healthz  200 only when every shard is healthy
//	GET  /v1/viewtree the shared view tree (rendered locally)
//	GET  /metrics     the router's own Prometheus exposition, including
//	                  per-shard up/acked/applied series
//
// Errors use the same v1 envelope as the workers.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/update", rt.handleUpdate)
	mux.HandleFunc("GET /v1/model", rt.countRead(serve.ServeModel))
	mux.HandleFunc("GET /v1/predict", rt.countRead(serve.ServePredict))
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	mux.HandleFunc("GET /v1/viewtree", rt.handleViewTree)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return mux
}

func (rt *Router) handleUpdate(w http.ResponseWriter, r *http.Request) {
	rt.writes.Inc()
	// The client's batch ID is forwarded verbatim to every shard, so a
	// client-level retry of the whole request dedups there; a write
	// without one gets a router-minted ID, so the router's own
	// per-shard retries stay idempotent regardless of the client.
	batchID := r.Header.Get(client.BatchIDHeader)
	if batchID != "" {
		if _, err := wal.ParseBatchID(batchID); err != nil {
			rt.writeErrors.Inc()
			serve.WriteError(w, http.StatusBadRequest, serve.CodeBadRequest,
				fmt.Errorf("%s: %w", client.BatchIDHeader, err))
			return
		}
	} else {
		// The router becomes the retrying origin of an unidentified write.
		batchID = wal.BatchID{Origin: rt.origin, Seq: rt.batchSeq.Add(1)}.String()
	}
	raws, ups, err := serve.DecodeRequest(r)
	if err != nil {
		rt.writeErrors.Inc()
		serve.WriteError(w, http.StatusBadRequest, serve.CodeBadRequest, err)
		return
	}
	// Owners: the owning shard for anchor updates, -1 (broadcast) for
	// the rest. Updates the engine refuses (unknown relation, wrong
	// arity, numeric values out of range, a new category once the
	// dictionary is full) fail the whole batch up front with the
	// engine's text and code, as a worker would — no shard has been
	// touched yet, so rejecting is free, and the shard map hashes only
	// tuples of the anchor's arity.
	owners := make([]int, len(ups))
	for i, u := range ups {
		if err := rt.merger.CheckUpdate(u); err != nil {
			rt.writeErrors.Inc()
			serve.WriteRefused(w, fmt.Errorf("updates[%d]: %w", i, err))
			return
		}
		if u.Rel == rt.smap.Anchor() {
			owners[i] = rt.smap.Owner(u.Tuple)
		} else {
			owners[i] = -1
		}
	}
	perShard, deduped, failed := rt.fanOutWrite(r.Context(), batchID, rt.subBatches(raws, owners))
	if len(failed) > 0 {
		rt.writeErrors.Inc()
		ids := make([]int, len(failed))
		allOverloaded, allExpired := true, true
		retries := make([]shardRetryDetail, len(failed))
		for i, f := range failed {
			ids[i] = f.id
			retries[i] = shardRetryDetail{
				Shard: f.id, Attempts: f.attempts, Exhausted: f.exhausted, Error: f.err.Error(),
			}
			var ae *client.APIError
			isAPI := errors.As(f.err, &ae)
			if !isAPI || ae.Status != http.StatusTooManyRequests {
				allOverloaded = false
			}
			if !isAPI || ae.Status != http.StatusConflict || ae.Code != serve.CodeBatchExpired {
				allExpired = false
			}
		}
		err := fmt.Errorf("cluster: %d of %d touched shards failed to ack (shards %v, first: %w); sub-batches acked by other shards are applied and will be visible", len(failed), len(perShard)+len(failed), ids, failed[0].err)
		if allOverloaded {
			// Pure backpressure: every failing shard shed its sub-batch
			// before enqueueing, so the client should simply retry.
			serve.WriteRetryError(w, http.StatusTooManyRequests, serve.CodeOverloaded, err, time.Second)
			return
		}
		if allExpired {
			// Every failing shard refused a retry older than its dedup
			// window: terminal, and the client must learn it as such.
			serve.WriteError(w, http.StatusConflict, serve.CodeBatchExpired, err)
			return
		}
		// The standard envelope plus per-shard retry detail: how many
		// attempts each failing shard got and whether the router gave
		// up because the retry budget ran dry (exhausted) or because
		// the rejection was terminal.
		serve.WriteJSON(w, http.StatusServiceUnavailable, retryErrorEnvelope{
			ErrorEnvelope: client.ErrorEnvelope{Error: err.Error(), Code: serve.CodeUnavailable},
			Retries:       retries,
		})
		return
	}
	ack := map[string]any{
		"accepted": len(ups),
		"applied":  true,
		"shards":   perShard,
	}
	if deduped > 0 {
		ack["deduped"] = deduped
	}
	serve.WriteJSON(w, http.StatusAccepted, ack)
}

// shardRetryDetail is one failing shard's row in the 503 envelope.
type shardRetryDetail struct {
	Shard int `json:"shard"`
	// Attempts counts requests actually sent (0: the circuit breaker
	// failed the write fast).
	Attempts int `json:"attempts"`
	// Exhausted is true when retryable failures outlived the retry
	// budget, false when the shard's rejection was terminal.
	Exhausted bool   `json:"exhausted"`
	Error     string `json:"error"`
}

// retryErrorEnvelope extends the uniform v1 error envelope with the
// router's per-shard retry detail.
type retryErrorEnvelope struct {
	client.ErrorEnvelope
	Retries []shardRetryDetail `json:"retries"`
}

// cluster is the merged-read envelope extension: shard topology and
// coverage of the response.
type clusterEnvelope struct {
	Shards  int    `json:"shards"`
	Merged  int    `json:"merged"`
	Stale   bool   `json:"stale"`
	Missing []int  `json:"missing,omitempty"`
	Acked   uint64 `json:"acked"`
}

func envelopeOf(rt *Router, info *mergeInfo) clusterEnvelope {
	return clusterEnvelope{
		Shards:  len(rt.shards),
		Merged:  info.Merged,
		Stale:   len(info.Missing) > 0,
		Missing: info.Missing,
		Acked:   info.Acked,
	}
}

// countRead serves one read from the merged model through the worker's
// handler, counting the request and, when it answers other than 2xx,
// the error.
func (rt *Router) countRead(serveRead func(http.ResponseWriter, *http.Request, serve.ReadSource) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt.reads.Inc()
		if serveRead(w, r, rt.readMerged)/100 != 2 {
			rt.readErrors.Inc()
		}
	}
}

// readMerged is the router's serve.ReadSource: the merged model (?stale=1
// merges the reachable shards) under the "cluster" envelope.
func (rt *Router) readMerged(r *http.Request) (fivm.Model, map[string]any, error) {
	stale, _ := strconv.ParseBool(r.URL.Query().Get("stale"))
	model, info, err := rt.mergedModel(r.Context(), stale)
	if err != nil {
		return nil, nil, err
	}
	return model, map[string]any{"cluster": envelopeOf(rt, info)}, nil
}

// workerStatus is one shard's row in the aggregated /v1/stats and
// /v1/healthz bodies.
type workerStatus struct {
	ID             int    `json:"id"`
	URL            string `json:"url"`
	OK             bool   `json:"ok"`
	Error          string `json:"error,omitempty"`
	AckedUpdates   uint64 `json:"acked_updates"`
	AppliedUpdates uint64 `json:"applied_updates"`
	Ingested       uint64 `json:"ingested"`
	Shed           uint64 `json:"shed"`
	WALEnabled     bool   `json:"wal_enabled"`
}

// handleStats aggregates every reachable worker's counters. The
// "shards" object keeps the worker wire shape (relation → arity), so a
// client that discovers the schema from it works unchanged against a
// router.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	workers := make([]workerStatus, len(rt.shards))
	var ingested, applied, shed uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(i int, sh *shardRef) {
			defer wg.Done()
			ws := workerStatus{ID: sh.id, URL: sh.url, AckedUpdates: sh.acked.Load()}
			st, app, err := sh.observeStats(r.Context())
			if err != nil {
				ws.Error = err.Error()
			} else {
				ws.OK = true
				ws.Ingested, ws.Shed = st.Ingested, st.Shed
				ws.WALEnabled = st.WAL.Enabled
				ws.AppliedUpdates = app
				mu.Lock()
				ingested += st.Ingested
				applied += st.Applied
				shed += st.Shed
				mu.Unlock()
			}
			workers[i] = ws
		}(i, sh)
	}
	wg.Wait()
	shards := make(map[string]map[string]int, len(rt.arity))
	for rel, n := range rt.arity {
		shards[rel] = map[string]int{"arity": n}
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"cluster":     true,
		"kind":        rt.merger.Kind(),
		"shard_count": len(rt.shards),
		"shard_by":    rt.smap.Anchor(),
		"ingested":    ingested,
		"applied":     applied,
		"shed":        shed,
		"shards":      shards,
		"workers":     workers,
	})
}

// handleHealthz answers 200 only when every shard is reachable and
// healthy; otherwise 503 with per-shard detail, so an orchestrator
// probes the whole serving tier through one endpoint.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type workerHealth struct {
		ID    int    `json:"id"`
		URL   string `json:"url"`
		OK    bool   `json:"ok"`
		Error string `json:"error,omitempty"`
	}
	workers := make([]workerHealth, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(i int, sh *shardRef) {
			defer wg.Done()
			wh := workerHealth{ID: sh.id, URL: sh.url}
			h, err := sh.cli.Healthz(r.Context())
			switch {
			case err != nil:
				sh.markDown()
				wh.Error = err.Error()
			case !h.OK:
				sh.up.Store(true)
				wh.Error = "unhealthy"
			default:
				sh.up.Store(true)
				wh.OK = true
			}
			workers[i] = wh
		}(i, sh)
	}
	wg.Wait()
	ok := true
	for _, wh := range workers {
		ok = ok && wh.OK
	}
	code := http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, code, map[string]any{
		"ok":          ok,
		"cluster":     true,
		"shard_count": len(rt.shards),
		"workers":     workers,
	})
}

func (rt *Router) handleViewTree(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, rt.merger.ViewTree())
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.reg.WritePrometheus(w)
}
