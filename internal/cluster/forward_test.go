package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/fivm/client"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/value"
)

// recordingWorker stands in for a shard: it records every update body
// and batch ID it receives and acks it, after answering the first
// fail503 requests with 503 — or, when expired, refuses every request
// with 409 batch_id_expired.
type recordingWorker struct {
	mu      sync.Mutex
	bodies  []string
	ids     []string
	fail503 int
	expired bool
}

func (rw *recordingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeBadRequest, err)
		return
	}
	rw.mu.Lock()
	rw.bodies = append(rw.bodies, string(body))
	rw.ids = append(rw.ids, r.Header.Get(client.BatchIDHeader))
	fail := rw.fail503 > 0
	if fail {
		rw.fail503--
	}
	rw.mu.Unlock()
	if fail {
		serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeUnavailable, errors.New("restarting"))
		return
	}
	if rw.expired {
		serve.WriteError(w, http.StatusConflict, serve.CodeBatchExpired, serve.ErrBatchExpired)
		return
	}
	serve.WriteJSON(w, http.StatusAccepted, map[string]any{"accepted": 1, "applied": true})
}

func (rw *recordingWorker) seen() (bodies, ids []string) {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return append([]string(nil), rw.bodies...), append([]string(nil), rw.ids...)
}

// startRecordingRouter puts a router for the count config in front of
// recording workers and returns its URL.
func startRecordingRouter(t *testing.T, workers ...*recordingWorker) (*cluster.Router, string) {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		hs := httptest.NewServer(w)
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	rt, err := cluster.New(cluster.Config{ShardURLs: urls, Engine: engineConfigs()["count"], ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		hs.Close()
		rt.Close()
	})
	return rt, hs.URL
}

// ownedKeys returns an R join-key value A owned by each of m's shards.
func ownedKeys(t *testing.T, m *cluster.ShardMap, shards int) []int {
	t.Helper()
	keys := make([]int, shards)
	found := 0
	for a := 1; a < 1000 && found < len(keys); a++ {
		if o := m.Owner(value.T(a, 0)); keys[o] == 0 {
			keys[o] = a
			found++
		}
	}
	if found < len(keys) {
		t.Fatalf("no R key found for every one of %d shards", len(keys))
	}
	return keys
}

func postRouter(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/update", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("router answered %d: %s", resp.StatusCode, msg)
	}
}

// TestRouterForwardsBytesVerbatim: each shard's sub-batch body is the
// client's own update objects for that shard — anchor updates it owns
// and every broadcast update — concatenated in order. Escapes, unknown
// fields, whitespace inside an object and the literal 4.0 arrive as the
// client wrote them, so the worker types 4.0 as a DOUBLE, as sent.
func TestRouterForwardsBytesVerbatim(t *testing.T) {
	w0, w1 := &recordingWorker{}, &recordingWorker{}
	rt, url := startRecordingRouter(t, w0, w1)
	k := ownedKeys(t, rt.Map(), 2)
	objs := []string{
		fmt.Sprintf(`{"rel":"R","tuple":[%d,4.0],"note":"unknown field"}`, k[0]),
		fmt.Sprintf(`{"rel":"S","tuple":[%d,"café \/ \t \"q\"",2.50],"mult":-1}`, k[0]),
		fmt.Sprintf(`{ "rel" : "R", "tuple" : [%d, 7] }`, k[1]),
		fmt.Sprintf(`{"rel":"R","tuple":[%d,1e2],"extra":[1,{"x":null}]}`, k[1]),
	}
	postRouter(t, url, "{\"updates\":[\n "+strings.Join(objs, ",\n ")+"\n]}")

	want := []string{
		`{"updates":[` + objs[0] + "," + objs[1] + `]}`,
		`{"updates":[` + objs[1] + "," + objs[2] + "," + objs[3] + `]}`,
	}
	for i, w := range []*recordingWorker{w0, w1} {
		bodies, _ := w.seen()
		if len(bodies) != 1 || bodies[0] != want[i] {
			t.Errorf("shard %d received %q, want [%q]", i, bodies, want[i])
		}
	}
	bodies, _ := w0.seen()
	if len(bodies) == 0 {
		t.FailNow()
	}
	_, ups, err := serve.DecodeUpdates(strings.NewReader(bodies[0]))
	if err != nil {
		t.Fatal(err)
	}
	if got := ups[0].Tuple[1]; !got.Equal(value.Float(4)) {
		t.Errorf("forwarded 4.0 decodes as %v (%v), want DOUBLE 4", got, got.Kind())
	}
}

// TestRouterRetryResendsIdenticalBytes: a shard that answers 503 gets
// the same body under the same batch ID on the retry.
func TestRouterRetryResendsIdenticalBytes(t *testing.T) {
	w0, w1 := &recordingWorker{fail503: 1}, &recordingWorker{}
	rt, url := startRecordingRouter(t, w0, w1)
	k := ownedKeys(t, rt.Map(), 2)
	postRouter(t, url, fmt.Sprintf(`{"updates":[{"rel":"R","tuple":[%d,1.50]},{"rel":"S","tuple":[%d,"x",3]}]}`, k[0], k[0]))
	bodies, ids := w0.seen()
	if len(bodies) != 2 {
		t.Fatalf("shard 0 saw %d requests, want 503 then the retry", len(bodies))
	}
	if bodies[0] != bodies[1] || ids[0] != ids[1] || ids[0] == "" {
		t.Errorf("retry changed the request:\n first %s %q\n retry %s %q", ids[0], bodies[0], ids[1], bodies[1])
	}
	if b1, _ := w1.seen(); len(b1) != 1 {
		t.Errorf("shard 1 saw %d requests, want 1 (its broadcast share, never retried)", len(b1))
	}
}

// TestRouterPassesOnExpiredBatch: when every failing shard refuses the
// sub-batch as older than its dedup window (409 batch_id_expired), the
// router answers 409 with that code, not its generic 503 envelope — a
// client must not retry a terminal refusal.
func TestRouterPassesOnExpiredBatch(t *testing.T) {
	w0, w1 := &recordingWorker{expired: true}, &recordingWorker{expired: true}
	rt, url := startRecordingRouter(t, w0, w1)
	k := ownedKeys(t, rt.Map(), 2)
	resp, err := http.Post(url+"/v1/update", "application/json",
		strings.NewReader(fmt.Sprintf(`{"updates":[{"rel":"R","tuple":[%d,1]},{"rel":"R","tuple":[%d,2]}]}`, k[0], k[1])))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), `"code":"`+serve.CodeBatchExpired+`"`) {
		t.Errorf("router answered %d %s, want 409 %s", resp.StatusCode, body, serve.CodeBatchExpired)
	}
	if b0, _ := w0.seen(); len(b0) != 1 {
		t.Errorf("shard 0 saw %d requests, want 1 (a 409 is never retried)", len(b0))
	}
}

// TestRouterRejectsWrongArity: a tuple of the wrong arity, or of an
// unknown relation, is refused with the worker's 400 before the shard
// map hashes it; a short anchor tuple used to index past its end there
// and drop the connection.
func TestRouterRejectsWrongArity(t *testing.T) {
	ctx := context.Background()
	_, cli := startCluster(t, engineConfigs()["count"], 2)
	for _, c := range []struct {
		u    client.Update
		want string // a substring of the engine's error
	}{
		{client.NewUpdate("R", 1), "relation R has 2 attributes"},
		{client.NewUpdate("S", 1, 1, 2), "relation S has 3 attributes"},
		{client.NewUpdate("Nope", 1, 1), "unknown relation Nope"},
	} {
		_, err := cli.Update(ctx, []client.Update{c.u}, true)
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || !strings.Contains(ae.Message, c.want) {
			t.Errorf("%s%v: err = %v, want a 400 naming %q", c.u.Rel, c.u.Tuple, err, c.want)
		}
	}
}

// TestRouterRejectsHugeValue: a continuous value whose square overflows
// refuses the whole batch with the engine's 400 before it is split
// across the shards.
func TestRouterRejectsHugeValue(t *testing.T) {
	_, cli := startCluster(t, engineConfigs()["covar"], 2)
	_, err := cli.Update(context.Background(), []client.Update{client.NewUpdate("S", 1, 1, 2, 3), client.NewUpdate("R", 1, 1, 1e200)}, true)
	var ae *client.APIError
	if want := "relation R: B = 1e+200"; !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || !strings.Contains(ae.Message, want) {
		t.Errorf("err = %v, want a 400 naming %q", err, want)
	}
}
