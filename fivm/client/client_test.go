package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// scriptServer answers each request from a scripted list of responses
// (repeating the last one when the script runs out) and records what it
// saw.
type scriptServer struct {
	t      *testing.T
	script []func(w http.ResponseWriter)
	hits   atomic.Int64
	ids    []string // X-Fivm-Batch-Id per request, in order
	mu     chan struct{}
}

func newScriptServer(t *testing.T, script ...func(w http.ResponseWriter)) (*scriptServer, *httptest.Server) {
	s := &scriptServer{t: t, script: script, mu: make(chan struct{}, 1)}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(s.hits.Add(1)) - 1
		s.mu <- struct{}{}
		s.ids = append(s.ids, r.Header.Get(BatchIDHeader))
		<-s.mu
		if n >= len(s.script) {
			n = len(s.script) - 1
		}
		s.script[n](w)
	}))
	t.Cleanup(hs.Close)
	return s, hs
}

func status(code int, body string) func(w http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_, _ = w.Write([]byte(body))
	}
}

func retryAfter(code int, header string, body string) func(w http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		w.Header().Set("Retry-After", header)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_, _ = w.Write([]byte(body))
	}
}

var ok202 = status(http.StatusAccepted, `{"accepted":1,"applied":true}`)

func testUpdates() []Update { return []Update{NewUpdate("R", 1, 1, 2)} }

// TestRetryMatrix drives the client retry loop against a scripted fake
// server: which failures retry, which surface, and what the caller
// sees when retries run out.
func TestRetryMatrix(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name    string
		script  []func(w http.ResponseWriter)
		opts    []Option
		send    func(c *Client) error
		wantErr func(t *testing.T, err error)
		wantN   int64 // requests the server must have seen
	}{
		{
			name:   "429 then success",
			script: []func(w http.ResponseWriter){status(429, `{"error":"shed","code":"overloaded"}`), status(429, `{"error":"shed","code":"overloaded"}`), ok202},
			opts:   []Option{WithRetries(3), WithBackoff(time.Millisecond, 10*time.Millisecond)},
			send:   func(c *Client) error { _, err := c.Update(ctx, testUpdates(), false); return err },
			wantN:  3,
		},
		{
			name:   "503 retried for identified update",
			script: []func(w http.ResponseWriter){status(503, `{"error":"restarting","code":"unavailable"}`), ok202},
			opts:   []Option{WithRetries(3), WithBackoff(time.Millisecond, 10*time.Millisecond)},
			send:   func(c *Client) error { _, err := c.Update(ctx, testUpdates(), false); return err },
			wantN:  2,
		},
		{
			name:   "503 NOT retried for unidentified update",
			script: []func(w http.ResponseWriter){status(503, `{"error":"restarting","code":"unavailable"}`), ok202},
			opts:   []Option{WithRetries(3), WithBackoff(time.Millisecond, 10*time.Millisecond)},
			send:   func(c *Client) error { _, err := c.UpdateWithID(ctx, "", testUpdates(), false); return err },
			wantErr: func(t *testing.T, err error) {
				var ae *APIError
				if !errors.As(err, &ae) || ae.Status != 503 {
					t.Fatalf("got %v, want 503 APIError", err)
				}
			},
			wantN: 1,
		},
		{
			name:   "retries exhausted surfaces APIError",
			script: []func(w http.ResponseWriter){status(429, `{"error":"shed","code":"overloaded"}`)},
			opts:   []Option{WithRetries(2), WithBackoff(time.Millisecond, 5*time.Millisecond)},
			send:   func(c *Client) error { _, err := c.Update(ctx, testUpdates(), false); return err },
			wantErr: func(t *testing.T, err error) {
				var ae *APIError
				if !errors.As(err, &ae) || ae.Status != 429 || ae.Code != "overloaded" || !ae.Temporary() {
					t.Fatalf("got %v, want temporary 429 APIError with code overloaded", err)
				}
			},
			wantN: 3, // initial + 2 retries
		},
		{
			name:   "retries disabled surfaces immediately",
			script: []func(w http.ResponseWriter){status(429, `{"error":"shed","code":"overloaded"}`)},
			opts:   []Option{WithRetries(0)},
			send:   func(c *Client) error { _, err := c.Update(ctx, testUpdates(), false); return err },
			wantErr: func(t *testing.T, err error) {
				var ae *APIError
				if !errors.As(err, &ae) {
					t.Fatalf("got %v, want APIError", err)
				}
			},
			wantN: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, hs := newScriptServer(t, tc.script...)
			c := New(hs.URL, tc.opts...)
			err := tc.send(c)
			if tc.wantErr != nil {
				tc.wantErr(t, err)
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if got := srv.hits.Load(); got != tc.wantN {
				t.Errorf("server saw %d requests, want %d", got, tc.wantN)
			}
		})
	}
}

// TestRetryAfterHonoredAndClamped checks both directions of the hint:
// a small Retry-After stretches the wait beyond the base backoff, and a
// huge one is clamped to the configured maximum.
func TestRetryAfterHonoredAndClamped(t *testing.T) {
	ctx := context.Background()

	// Honored: retry_after_ms=80 with base backoff 1ms — the retry must
	// wait at least ~80ms.
	_, hs := newScriptServer(t,
		status(429, `{"error":"shed","code":"overloaded","retry_after_ms":80}`), ok202)
	c := New(hs.URL, WithRetries(1), WithBackoff(time.Millisecond, time.Second))
	t0 := time.Now()
	if _, err := c.Update(ctx, testUpdates(), false); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 60*time.Millisecond {
		t.Errorf("retry waited %v, want >= ~80ms (retry_after_ms hint ignored?)", d)
	}

	// Clamped: Retry-After: 30 (seconds) with max backoff 20ms — the
	// retry must NOT wait anywhere near 30s.
	_, hs2 := newScriptServer(t, retryAfter(429, "30", `{"error":"shed","code":"overloaded"}`), ok202)
	c2 := New(hs2.URL, WithRetries(1), WithBackoff(time.Millisecond, 20*time.Millisecond))
	t0 = time.Now()
	if _, err := c2.Update(ctx, testUpdates(), false); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Errorf("retry waited %v, want clamped to ~20ms", d)
	}
}

// TestContextCanceledMidBackoff cancels the context while the client
// sleeps between attempts; the call must return the context error, not
// hang or keep retrying.
func TestContextCanceledMidBackoff(t *testing.T) {
	srv, hs := newScriptServer(t, status(429, `{"error":"shed","code":"overloaded","retry_after_ms":60000}`))
	c := New(hs.URL, WithRetries(5), WithBackoff(time.Minute, time.Minute))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := c.Update(ctx, testUpdates(), false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := srv.hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (canceled during the first backoff)", got)
	}
}

// TestTransportErrorRetryIdempotentOnly: a connection that dies before
// any response retries for identified updates and GETs, but surfaces
// immediately for an unidentified POST (it may have been applied).
func TestTransportErrorRetryIdempotentOnly(t *testing.T) {
	ctx := context.Background()
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			// Kill the connection without writing a response.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		ok202(w)
	}))
	defer hs.Close()

	c := New(hs.URL, WithRetries(2), WithBackoff(time.Millisecond, 10*time.Millisecond))
	if _, err := c.Update(ctx, testUpdates(), false); err != nil {
		t.Fatalf("identified update through transport failure: %v", err)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("server saw %d requests, want 2", got)
	}

	hits.Store(0)
	if _, err := c.UpdateWithID(ctx, "", testUpdates(), false); err == nil {
		t.Fatal("unidentified update through transport failure unexpectedly succeeded")
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests for unidentified update, want 1 (no retry)", got)
	}
}

// TestBatchIDStamping: every Update carries a batch ID; retries of one
// call reuse the same ID; separate calls get distinct IDs sharing the
// client's origin.
func TestBatchIDStamping(t *testing.T) {
	ctx := context.Background()
	srv, hs := newScriptServer(t, status(503, `{"error":"x","code":"unavailable"}`), ok202, ok202)
	c := New(hs.URL, WithRetries(2), WithBackoff(time.Millisecond, 10*time.Millisecond))
	if _, err := c.Update(ctx, testUpdates(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update(ctx, testUpdates(), false); err != nil {
		t.Fatal(err)
	}
	ids := srv.ids
	if len(ids) != 3 {
		t.Fatalf("server saw %d requests, want 3", len(ids))
	}
	if ids[0] == "" || ids[0] != ids[1] {
		t.Errorf("retry changed the batch ID: %q then %q", ids[0], ids[1])
	}
	if ids[2] == ids[0] {
		t.Errorf("second call reused the first call's batch ID %q", ids[2])
	}
	origin := func(id string) string { return strings.SplitN(id, "-", 2)[0] }
	if origin(ids[0]) != origin(ids[2]) || len(origin(ids[0])) != 32 {
		t.Errorf("batch IDs %q and %q should share one 32-hex-char origin", ids[0], ids[2])
	}
}

// TestRetryAfterHTTPDate: RFC 9110 allows Retry-After as an HTTP-date;
// the parsed delay must approximate the time until that date, and past
// or negative hints must be ignored rather than treated as zero-wait.
func TestRetryAfterHTTPDate(t *testing.T) {
	mk := func(header string) *http.Response {
		rec := httptest.NewRecorder()
		rec.Header().Set("Retry-After", header)
		rec.WriteHeader(429)
		_, _ = rec.WriteString(`{"error":"shed","code":"overloaded"}`)
		return rec.Result()
	}
	future := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	if ae := decodeAPIError(mk(future)); ae.RetryAfter < 80*time.Second || ae.RetryAfter > 91*time.Second {
		t.Errorf("HTTP-date Retry-After parsed as %v, want ~90s", ae.RetryAfter)
	}
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if ae := decodeAPIError(mk(past)); ae.RetryAfter != 0 {
		t.Errorf("past HTTP-date Retry-After parsed as %v, want ignored", ae.RetryAfter)
	}
	if ae := decodeAPIError(mk("-5")); ae.RetryAfter != 0 {
		t.Errorf("negative seconds Retry-After parsed as %v, want ignored", ae.RetryAfter)
	}
	if ae := decodeAPIError(mk("garbage")); ae.RetryAfter != 0 {
		t.Errorf("malformed Retry-After parsed as %v, want ignored", ae.RetryAfter)
	}

	// The envelope's retry_after_ms: negative values are ignored, and a
	// positive envelope wins over the header.
	rec := httptest.NewRecorder()
	rec.WriteHeader(429)
	_, _ = rec.WriteString(`{"error":"shed","code":"overloaded","retry_after_ms":-100}`)
	if ae := decodeAPIError(rec.Result()); ae.RetryAfter != 0 {
		t.Errorf("negative retry_after_ms parsed as %v, want ignored", ae.RetryAfter)
	}
	rec = httptest.NewRecorder()
	rec.Header().Set("Retry-After", "7")
	rec.WriteHeader(429)
	_, _ = rec.WriteString(`{"error":"shed","code":"overloaded","retry_after_ms":250}`)
	if ae := decodeAPIError(rec.Result()); ae.RetryAfter != 250*time.Millisecond {
		t.Errorf("envelope retry_after_ms=250 with header 7s parsed as %v, want 250ms (envelope wins)", ae.RetryAfter)
	}
}

// TestPartialRequiresAppliedHeader: a partial without a well-formed
// X-Fivm-Applied covers nothing the caller can check, so it is an error
// naming the header, not a partial that covers 0 updates.
func TestPartialRequiresAppliedHeader(t *testing.T) {
	for name, header := range map[string]string{"missing": "", "malformed": "twelve"} {
		_, hs := newScriptServer(t, func(w http.ResponseWriter) {
			if header != "" {
				w.Header().Set("X-Fivm-Applied", header)
			}
			_, _ = w.Write([]byte("FIVMPART"))
		})
		_, err := New(hs.URL).Partial(context.Background())
		if err == nil || !strings.Contains(err.Error(), "X-Fivm-Applied") {
			t.Errorf("%s header: err = %v, want one naming X-Fivm-Applied", name, err)
		}
	}
	_, hs := newScriptServer(t, func(w http.ResponseWriter) {
		w.Header().Set("X-Fivm-Applied", "12")
		_, _ = w.Write([]byte("FIVMPART"))
	})
	p, err := New(hs.URL).Partial(context.Background())
	if err != nil || p.Applied != 12 || string(p.Data) != "FIVMPART" {
		t.Fatalf("Partial = %+v, %v; want applied 12", p, err)
	}
}

// TestPartialAcksAskOnlyWhenWaiting: WithPartialAcks adds partial=1 to
// waited updates only, and the ack's partial decodes from base64.
func TestPartialAcksAskOnlyWhenWaiting(t *testing.T) {
	var queries []string
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		queries = append(queries, r.URL.RawQuery)
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"accepted":1,"applied":true,"partial":"RklWTVBBUlQ=","partial_applied":3}`))
	}))
	defer hs.Close()
	ctx := context.Background()
	ups := []Update{NewUpdate("R", 1, 1)}
	ack, err := New(hs.URL, WithPartialAcks()).Update(ctx, ups, true)
	if err != nil || string(ack.Partial) != "FIVMPART" || ack.PartialApplied != 3 {
		t.Fatalf("ack = %+v, %v", ack, err)
	}
	if _, err := New(hs.URL, WithPartialAcks()).Update(ctx, ups, false); err != nil {
		t.Fatal(err)
	}
	if _, err := New(hs.URL).Update(ctx, ups, true); err != nil {
		t.Fatal(err)
	}
	if want := []string{"wait=1&partial=1", "", "wait=1"}; strings.Join(queries, "|") != strings.Join(want, "|") {
		t.Fatalf("queries = %q, want %q", queries, want)
	}
}
