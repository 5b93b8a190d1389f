// Package client is the Go client for the fivm v1 HTTP API — the one
// HTTP client implementation in the tree, consumed by the cluster
// router's shard calls, the fivm-bench load generator, and the serving
// example alike. It speaks the versioned /v1/ routes, decodes the
// uniform error envelope ({"error","code","retry_after_ms"}) into
// *APIError, and retries with backoff honoring the server's Retry-After
// hint.
//
// Every Update call is stamped with a batch ID (the X-Fivm-Batch-Id
// header: the client's random 128-bit origin plus a per-client
// sequence number), which makes the request idempotent server-side —
// the server's dedup table answers a redelivered ID with the original
// ack instead of applying the batch again. That is what lets the retry
// loop safely retry transport failures and 503s, where the first
// delivery may or may not have been applied: 429s were shed before
// enqueueing and are always retried, while transport errors and 503s
// are retried only for idempotent requests (GETs, or identified
// updates).
package client

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Header names of the v1 protocol (docs/API.md).
const (
	// BatchIDHeader carries the idempotency batch ID on POST /v1/update.
	BatchIDHeader = "X-Fivm-Batch-Id"
	// AppliedHeader carries, on a GET /v1/partial response, the
	// cumulative applied-update counter the partial covers.
	AppliedHeader = "X-Fivm-Applied"
)

// Update is the wire form of one tuple update. Tuple elements must be
// JSON scalars (numbers, strings, nil); Mult nil means 1 (insert),
// negative deletes.
type Update struct {
	Rel   string `json:"rel"`
	Tuple []any  `json:"tuple"`
	Mult  *int   `json:"mult,omitempty"`
}

// NewUpdate builds one update; mult 1 is left implicit on the wire.
func NewUpdate(rel string, mult int, tuple ...any) Update {
	u := Update{Rel: rel, Tuple: tuple}
	if mult != 1 {
		u.Mult = &mult
	}
	return u
}

// UpdateAck is the response to a POST /v1/update: how many updates the
// server admitted, whether they were already applied when the response
// was written (wait=true), and how many were recognized as duplicates
// of an earlier delivery of the same batch ID (suppressed, not
// re-applied; Deduped == Accepted means the whole batch was a replay).
// WithPartialAcks adds the partial that covers the batch (nil if none).
type UpdateAck struct {
	Accepted       int    `json:"accepted"`
	Applied        bool   `json:"applied"`
	Deduped        int    `json:"deduped"`
	Partial        []byte `json:"partial"`
	PartialApplied uint64 `json:"partial_applied"`
}

// Model is a decoded GET /v1/model response.
type Model struct {
	// Body is the full response object, including the kind-specific
	// result rendering.
	Body map[string]any
}

// Partial is a GET /v1/partial response: the shard's result relation in
// the binary partial format, plus the cumulative applied-update counter
// the body covers (the AppliedHeader).
type Partial struct {
	Data    []byte
	Applied uint64
}

// Stats is the typed subset of GET /v1/stats that programmatic callers
// consume; Raw carries the full body.
type Stats struct {
	Kind     string                     `json:"kind"`
	Ingested uint64                     `json:"ingested"`
	Applied  uint64                     `json:"applied"`
	Shed     uint64                     `json:"shed"`
	Batches  uint64                     `json:"batches"`
	Shards   map[string]ShardStatus     `json:"shards"`
	WAL      WALStatus                  `json:"wal"`
	Raw      map[string]json.RawMessage `json:"-"`
}

// ShardStatus reports one relation's ingest queue in /v1/stats and
// /v1/healthz: current depth, capacity, and the relation's tuple arity
// (which load generators use to synthesize valid updates).
type ShardStatus struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
	Arity    int `json:"arity"`
}

// WALStatus is the durability section ("wal") of /v1/stats and
// /v1/healthz.
type WALStatus struct {
	Enabled bool `json:"enabled"`
	// AppendedBatches and AppendedBytes count records logged by this
	// process.
	AppendedBatches uint64 `json:"appended_batches"`
	AppendedBytes   uint64 `json:"appended_bytes"`
	// Segments is the number of live segment files across shards.
	Segments int64 `json:"segments"`
	// CheckpointSeq and CheckpointAgeSeconds describe the newest valid
	// checkpoint (age falls back to time since boot when none exists).
	CheckpointSeq        uint64  `json:"checkpoint_seq"`
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds"`
	// RecoveredUpdates and RecoveredBatches are what boot recovery
	// restored: the checkpoint's cumulative coverage plus replayed log
	// records. Both are cumulative across restarts, so after a clean
	// quiesce-kill-restart cycle recovered_updates is at least the
	// applied count observed before the kill.
	RecoveredUpdates uint64 `json:"recovered_updates"`
	RecoveredBatches uint64 `json:"recovered_batches"`
	// AppliedUpdates and AppliedBatches are the cumulative counts the
	// current WAL positions cover (recovered plus applied since boot) —
	// what the next checkpoint will stamp.
	AppliedUpdates uint64 `json:"applied_updates"`
	AppliedBatches uint64 `json:"applied_batches"`
	// TruncatedBytes and RemovedSegments report what boot recovery
	// discarded as torn or unreachable.
	TruncatedBytes  uint64 `json:"truncated_bytes"`
	RemovedSegments int64  `json:"removed_segments"`
	// Crashed flags a poisoned pipeline; CrashError is its cause.
	Crashed    bool   `json:"crashed"`
	CrashError string `json:"crash_error,omitempty"`
}

// ErrorEnvelope is the uniform v1 error body. retry_after_ms appears
// only on retryable errors.
type ErrorEnvelope struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Health is a decoded GET /v1/healthz response.
type Health struct {
	OK bool `json:"ok"`
}

// APIError is a non-2xx response decoded from the v1 error envelope
// (legacy single-field {"error"} bodies decode too, with an empty
// Code).
type APIError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("fivm: server returned %d (%s): %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("fivm: server returned %d: %s", e.Status, e.Message)
}

// Temporary reports whether retrying the request later can succeed
// (backpressure or a shard restarting).
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries bounds how many times a retryable failure — a 429, or a
// transport error or 503 on an idempotent request — is retried before
// surfacing; 0 disables retrying (load generators keep their own shed
// accounting, and the cluster router owns its own per-shard policy).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithPartialAcks makes waited updates ask for the worker's partial in
// the ack (?wait=1&partial=1), for a router to merge reads from.
func WithPartialAcks() Option { return func(c *Client) { c.partialAcks = true } }

// WithBackoff sets the base and maximum retry delay. The server's
// Retry-After hint is honored when present but clamped to max.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.backoff, c.maxBackoff = base, max }
}

// Client talks to one fivm-serve worker or fivm-cluster router. It is
// safe for concurrent use.
type Client struct {
	base        string
	hc          *http.Client
	retries     int
	backoff     time.Duration
	maxBackoff  time.Duration
	partialAcks bool
	// origin is this client instance's random 128-bit identity; origin
	// plus the batchSeq counter forms each Update call's batch ID.
	origin   [16]byte
	batchSeq atomic.Uint64
}

// New builds a client for the server at base (e.g.
// "http://127.0.0.1:8344"). Defaults: the shared http.DefaultClient, 3
// retries, 100ms base / 2s max backoff.
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(base, "/"),
		hc:         http.DefaultClient,
		retries:    3,
		backoff:    100 * time.Millisecond,
		maxBackoff: 2 * time.Second,
	}
	_, _ = crand.Read(c.origin[:]) // never fails on supported platforms
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the server URL the client was built for.
func (c *Client) Base() string { return c.base }

// Update posts one batch of updates, stamped with a fresh batch ID so
// the server can deduplicate redeliveries — every retry of this call
// (transport failure, 503, 429) resends the identical body under the
// identical ID, which is exactly the contract the server's dedup table
// requires. wait=true blocks until the batch is applied and a model
// snapshot reflecting it is published — after a wait-acknowledged
// batch, any read (on this worker, or merged through a router tracking
// acks) observes it.
func (c *Client) Update(ctx context.Context, ups []Update, wait bool) (*UpdateAck, error) {
	return c.UpdateWithID(ctx, c.NextBatchID(), ups, wait)
}

// NextBatchID mints the next batch ID in this client's sequence (its
// random origin, a dash, a strictly increasing decimal counter). Use
// it with UpdateWithID to retry one batch across calls — or across
// clients — under one identity.
func (c *Client) NextBatchID() string {
	return hex.EncodeToString(c.origin[:]) + "-" + strconv.FormatUint(c.batchSeq.Add(1), 10)
}

// UpdateWithID is Update under an explicit batch ID (the cluster
// router forwards the client's incoming ID to every shard this way).
// An empty batchID sends an unidentified — non-idempotent, never
// retried on 503 or transport failure — request.
func (c *Client) UpdateWithID(ctx context.Context, batchID string, ups []Update, wait bool) (*UpdateAck, error) {
	body, err := appendUpdates(nil, ups)
	if err != nil {
		return nil, err
	}
	return c.UpdateBody(ctx, batchID, body, wait)
}

// UpdateBody is UpdateWithID over a body that is already encoded: the
// cluster router forwards the update objects a client sent this way,
// without decoding them into Updates and encoding them again. Every
// retry resends body as it is.
func (c *Client) UpdateBody(ctx context.Context, batchID string, body []byte, wait bool) (*UpdateAck, error) {
	path := "/v1/update"
	if wait {
		path += "?wait=1"
		if c.partialAcks {
			path += "&partial=1"
		}
	}
	resp, err := c.doID(ctx, http.MethodPost, path, body, batchID, 0)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var ack UpdateAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return nil, fmt.Errorf("fivm: decoding %s response: %w", path, err)
	}
	return &ack, nil
}

// Model fetches the published model.
func (c *Client) Model(ctx context.Context) (*Model, error) {
	var raw map[string]any
	if err := c.doJSON(ctx, http.MethodGet, "/v1/model", nil, &raw); err != nil {
		return nil, err
	}
	return &Model{Body: raw}, nil
}

// Predict evaluates the served predictor on one feature vector, one
// query parameter per feature.
func (c *Client) Predict(ctx context.Context, features map[string]string) (float64, error) {
	q := url.Values{}
	for k, v := range features {
		q.Set(k, v)
	}
	var out struct {
		Prediction float64 `json:"prediction"`
	}
	if err := c.doJSON(ctx, http.MethodGet, "/v1/predict?"+q.Encode(), nil, &out); err != nil {
		return 0, err
	}
	return out.Prediction, nil
}

// Stats fetches serving counters. The typed fields cover the
// programmatic consumers; Raw has everything.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var st Stats
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("fivm: decoding /v1/stats: %w", err)
	}
	if err := json.Unmarshal(data, &st.Raw); err != nil {
		return nil, fmt.Errorf("fivm: decoding /v1/stats: %w", err)
	}
	return &st, nil
}

// Partial fetches the worker's partial result relation for cross-shard
// merging.
func (c *Client) Partial(ctx context.Context) (*Partial, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/partial", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	applied, err := strconv.ParseUint(resp.Header.Get(AppliedHeader), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("fivm: /v1/partial: bad %s header: %w", AppliedHeader, err)
	}
	return &Partial{Data: data, Applied: applied}, nil
}

// Healthz probes liveness. A 503 with a well-formed body is a healthy
// transport answer about an unhealthy server: it returns OK=false and
// no error, after one request — health aggregators tell "down" from
// "unhealthy" by it. Transport failures retry like any GET.
func (c *Client) Healthz(ctx context.Context) (*Health, error) {
	resp, err := c.doID(ctx, http.MethodGet, "/v1/healthz", nil, "", http.StatusServiceUnavailable)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("fivm: decoding /v1/healthz: %w", err)
	}
	return &h, nil
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// doJSON performs a request and decodes a JSON response body into out.
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, out any) error {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("fivm: decoding %s response: %w", path, err)
	}
	return nil
}

// do performs one request with the retry loop (see doID).
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	return c.doID(ctx, method, path, body, "", 0)
}

// doID performs one request with the retry loop, stamping batchID on
// it when non-empty. A response with status dataStatus (0: none) is
// returned like a 2xx one; other non-2xx responses are decoded into
// *APIError.
// What retries depends on what a redelivery can do:
//
//   - 429: always retried — the server shed the batch before
//     enqueueing, so the retry cannot double-apply.
//   - Transport errors and 503s: retried only for idempotent requests
//     (GETs, and updates identified by a batch ID, which the server
//     deduplicates). An unidentified POST that failed mid-flight may
//     or may not have been applied; retrying it could double-apply,
//     so the error surfaces instead.
//
// Backoff doubles from the configured base, clamped to the maximum;
// a server Retry-After hint (header or envelope) overrides the
// computed delay for that attempt, clamped the same way.
func (c *Client) doID(ctx context.Context, method, path string, body []byte, batchID string, dataStatus int) (*http.Response, error) {
	idempotent := method == http.MethodGet || batchID != ""
	delay := c.backoff
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if batchID != "" {
			req.Header.Set(BatchIDHeader, batchID)
		}
		wait := delay
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if !idempotent || attempt >= c.retries {
				return nil, err
			}
		} else {
			if resp.StatusCode/100 == 2 || resp.StatusCode == dataStatus {
				return resp, nil
			}
			apiErr := decodeAPIError(resp)
			resp.Body.Close()
			retryable := apiErr.Status == http.StatusTooManyRequests ||
				(idempotent && apiErr.Status == http.StatusServiceUnavailable)
			if !retryable || attempt >= c.retries {
				return nil, apiErr
			}
			if apiErr.RetryAfter > 0 {
				wait = apiErr.RetryAfter
			}
		}
		if wait > c.maxBackoff {
			wait = c.maxBackoff
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		delay *= 2
		if delay > c.maxBackoff {
			delay = c.maxBackoff
		}
	}
}

// decodeAPIError unwraps an error response: the v1 envelope when
// present, the legacy {"error"} shape, or the raw body as a last
// resort. The Retry-After header — integer seconds or an HTTP-date,
// both allowed by RFC 9110 — and the envelope's retry_after_ms both
// feed RetryAfter (the envelope wins on conflict — it has millisecond
// resolution). Non-positive hints in either form are ignored: a
// negative or past-dated Retry-After must not turn into a zero-wait
// hot retry loop.
func decodeAPIError(resp *http.Response) *APIError {
	ae := &APIError{Status: resp.StatusCode}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil {
			if secs > 0 {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		} else if t, terr := http.ParseTime(s); terr == nil {
			if d := time.Until(t); d > 0 {
				ae.RetryAfter = d
			}
		}
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env ErrorEnvelope
	if err := json.Unmarshal(data, &env); err == nil && env.Error != "" {
		ae.Message = env.Error
		ae.Code = env.Code
		if env.RetryAfterMS > 0 { // negative envelopes are ignored, not zero-wait
			ae.RetryAfter = time.Duration(env.RetryAfterMS) * time.Millisecond
		}
	} else {
		ae.Message = strings.TrimSpace(string(data))
	}
	return ae
}
