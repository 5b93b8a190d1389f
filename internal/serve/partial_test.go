package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"testing"

	"repro/fivm"
	"repro/internal/view"
)

// decodePartial ring-merges one partial on a fresh engine of cfg and
// renders the result, so partials compare by content, not by bytes
// (a grouped result's tuple order is unspecified).
func decodePartial(t *testing.T, cfg fivm.Config, data []byte) string {
	t.Helper()
	merger, err := fivm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := merger.MergePartials([]io.Reader{bytes.NewReader(data)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.ResultJSON()
	if err != nil {
		return "err:" + err.Error()
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSnapshotPartialIsFrozen: a snapshot's partial describes its own
// version, whenever it is first encoded, for every engine kind — later
// writes change neither its content nor, once encoded, its bytes.
func TestSnapshotPartialIsFrozen(t *testing.T) {
	for name, cfg := range walEngineConfigs() {
		t.Run(name, func(t *testing.T) {
			eng, err := fivm.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(eng, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ref, err := fivm.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first := append(walSSeeds(), walRUpdate(0), walRUpdate(1))
			ingestWait(t, srv, first)
			if err := ref.Apply(first); err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := ref.WritePartial(&want); err != nil {
				t.Fatal(err)
			}

			v1 := srv.Snapshot()
			for i := 2; i < 8; i++ { // v1's partial is not encoded yet
				ingestWait(t, srv, []view.Update{walRUpdate(i)})
			}
			got, err := v1.Partial()
			if err != nil {
				t.Fatal(err)
			}
			if g, w := decodePartial(t, cfg, got), decodePartial(t, cfg, want.Bytes()); g != w {
				t.Fatalf("partial of version %d encoded after later writes\n got: %s\nwant: %s", v1.Version, g, w)
			}
			ingestWait(t, srv, []view.Update{walRUpdate(9), {Rel: "S", Tuple: walSSeeds()[0].Tuple, Mult: -1}})
			again, err := v1.Partial()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, again) {
				t.Fatal("partial bytes of one version changed after later writes")
			}
			if srv.Snapshot().Version == v1.Version {
				t.Fatal("later writes published no new version")
			}
		})
	}
}

// TestPartialAck: an ack with partial=1 carries the partial and applied
// counter GET /v1/partial serves at the same version; an ack without it
// has exactly the keys it always had.
func TestPartialAck(t *testing.T) {
	cfg := walEngineConfigs()["count"]
	_, ts := newEngineServer(t, cfg)
	post := func(query, body string) map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/update"+query, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /v1/update%s = %d", query, resp.StatusCode)
		}
		return out
	}
	keys := func(m map[string]json.RawMessage) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		slices.Sort(ks)
		return ks
	}

	plainKeys := func(q string) {
		t.Helper()
		if got := keys(post(q, `{"updates":[{"rel":"S","tuple":["a1",1,1]}]}`)); !slices.Equal(got, []string{"accepted", "applied"}) {
			t.Errorf("ack of %s has keys %v, want [accepted applied]", q, got)
		}
	}
	plainKeys("?wait=1")
	plainKeys("?wait=1&partial=0")

	ack := post("?wait=1&partial=1", `{"updates":[{"rel":"R","tuple":["a1",7]},{"rel":"R","tuple":["a1",8]}]}`)
	if got := keys(ack); !slices.Equal(got, []string{"accepted", "applied", "partial", "partial_applied"}) {
		t.Fatalf("partial=1 ack has keys %v", got)
	}
	var ackData []byte
	var ackApplied uint64
	if err := json.Unmarshal(ack["partial"], &ackData); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ack["partial_applied"], &ackApplied); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/partial")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/partial = %d, %v", resp.StatusCode, err)
	}
	applied, err := strconv.ParseUint(resp.Header.Get("X-Fivm-Applied"), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ackApplied != 4 || applied != ackApplied {
		t.Errorf("partial_applied %d, X-Fivm-Applied %d; want both 4", ackApplied, applied)
	}
	if g, w := decodePartial(t, cfg, ackData), decodePartial(t, cfg, data); g != w {
		t.Errorf("ack partial and GET /v1/partial differ\n ack: %s\n get: %s", g, w)
	}
	plainKeys("?partial=1") // without wait there is nothing to attach
}

// TestPartialRefusedAfterClose: GET /v1/partial no longer reaches the
// writer, but a closed server still answers 503.
func TestPartialRefusedAfterClose(t *testing.T) {
	srv, ts := newEngineServer(t, walEngineConfigs()["covar"])
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if code, body := getJSON(t, ts.URL+"/v1/partial"); code != http.StatusServiceUnavailable || body["code"] != CodeUnavailable {
		t.Fatalf("GET /v1/partial after Close = %d %v, want 503 unavailable", code, body)
	}
}
