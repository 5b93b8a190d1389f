package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/fivm"
)

// newHTTPServer serves a single-relation engine R(X,Y) with label Y, so
// y = 2x training data yields an easily checkable model.
func newHTTPServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	an, err := fivm.Open(fivm.Config{
		Relations: []fivm.RelationSpec{{Name: "R", Attrs: []string{"X", "Y"}}},
		Features:  []fivm.FeatureSpec{{Attr: "X"}, {Attr: "Y"}},
		Label:     "Y",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(an, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(srv))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postUpdates(t *testing.T, ts *httptest.Server, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/update?wait=1", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/update = %d: %v", resp.StatusCode, out)
	}
	return out
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestHTTPUpdateThenPredict(t *testing.T) {
	_, ts := newHTTPServer(t)

	// y = 2x over x = 1..20, as one batch with wait=1.
	var ups []string
	for x := 1; x <= 20; x++ {
		ups = append(ups, fmt.Sprintf(`{"rel":"R","tuple":[%d,%d]}`, x, 2*x))
	}
	out := postUpdates(t, ts, `{"updates":[`+strings.Join(ups, ",")+`]}`)
	if out["accepted"].(float64) != 20 || out["applied"] != true {
		t.Fatalf("update response = %v", out)
	}

	code, pred := getJSON(t, ts.URL+"/v1/predict?X=5")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/predict = %d: %v", code, pred)
	}
	if got := pred["prediction"].(float64); got < 9 || got > 11 {
		t.Fatalf("predict(X=5) = %v, want ≈10", got)
	}
	if pred["count"].(float64) != 20 {
		t.Fatalf("count = %v, want 20", pred["count"])
	}
	v1 := pred["version"].(float64)

	// A second batch shifts the line; the next predict must reflect it.
	var ups2 []string
	for x := 1; x <= 20; x++ {
		ups2 = append(ups2, fmt.Sprintf(`{"rel":"R","tuple":[%d,%d]}`, x, 2*x+100))
	}
	postUpdates(t, ts, `{"updates":[`+strings.Join(ups2, ",")+`]}`)
	code, pred2 := getJSON(t, ts.URL+"/v1/predict?X=5")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/predict (2) = %d: %v", code, pred2)
	}
	if pred2["version"].(float64) <= v1 {
		t.Fatalf("version did not advance: %v -> %v", v1, pred2["version"])
	}
	if got := pred2["prediction"].(float64); got < 40 || got > 80 {
		t.Fatalf("predict after shifted batch = %v, want ≈60", got)
	}
}

func TestHTTPDeleteViaMult(t *testing.T) {
	srv, ts := newHTTPServer(t)
	postUpdates(t, ts, `{"updates":[
		{"rel":"R","tuple":[1,2]},
		{"rel":"R","tuple":[3,6]},
		{"rel":"R","tuple":[1,2],"mult":-1}]}`)
	if got := srv.Snapshot().Count(); got != 1 {
		t.Fatalf("count = %v, want 1 after insert+insert+delete", got)
	}
}

func TestHTTPModelStatsViewTreeHealth(t *testing.T) {
	_, ts := newHTTPServer(t)
	postUpdates(t, ts, `{"updates":[{"rel":"R","tuple":[1,2]},{"rel":"R","tuple":[2,4]},{"rel":"R","tuple":[3,7]}]}`)

	code, model := getJSON(t, ts.URL+"/v1/model")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/model = %d: %v", code, model)
	}
	if model["label"] != "Y" || model["weights"] == nil {
		t.Fatalf("model = %v", model)
	}

	code, stats := getJSON(t, ts.URL+"/v1/stats")
	if code != http.StatusOK || stats["ingested"].(float64) != 3 {
		t.Fatalf("GET /v1/stats = %d: %v", code, stats)
	}

	resp, err := http.Get(ts.URL + "/v1/viewtree")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/viewtree = %d", resp.StatusCode)
	}

	code, health := getJSON(t, ts.URL+"/v1/healthz")
	if code != http.StatusOK || health["ok"] != true {
		t.Fatalf("GET /v1/healthz = %d: %v", code, health)
	}

	// The API lives under /v1 only: the unversioned aliases are gone.
	resp, err = http.Get(ts.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /model = %d, want 404", resp.StatusCode)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newHTTPServer(t)
	resp, err := http.Post(ts.URL+"/v1/update", "application/json", bytes.NewBufferString("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/update", "application/json",
		bytes.NewBufferString(`{"updates":[{"rel":"Nope","tuple":[1,2]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown relation = %d, want 400", resp.StatusCode)
	}
	// A continuous value whose square overflows refuses its whole batch
	// before anything is accepted.
	resp, err = http.Post(ts.URL+"/v1/update", "application/json",
		bytes.NewBufferString(`{"updates":[{"rel":"R","tuple":[1,2]},{"rel":"R","tuple":[1e200,2]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var refused map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&refused); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if msg := fmt.Sprint(refused["error"]); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "relation R: X = 1e+200") {
		t.Fatalf("huge continuous value = %d %q, want a 400 naming relation, attribute and value", resp.StatusCode, msg)
	}
	if _, stats := getJSON(t, ts.URL+"/v1/stats"); stats["ingested"].(float64) != 0 {
		t.Fatalf("refused batch ingested %v updates", stats["ingested"])
	}
	code, _ := getJSON(t, ts.URL+"/v1/predict") // missing features
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("predict without features = %d, want 422", code)
	}
}

// TestHTTPPredictRefusesNonFiniteInput: a continuous input that is not
// finite or lies past view.MaxNumeric — the bound the update path
// enforces — answers 422 with the error envelope, never a 200 whose
// body failed to encode.
func TestHTTPPredictRefusesNonFiniteInput(t *testing.T) {
	_, ts := newHTTPServer(t)
	postUpdates(t, ts, `{"updates":[{"rel":"R","tuple":[1,2]},{"rel":"R","tuple":[2,4]},{"rel":"R","tuple":[3,6]}]}`)
	for _, c := range []struct {
		x    string
		want int
	}{
		{"5", http.StatusOK},
		{"1e100", http.StatusOK},
		{"NaN", http.StatusUnprocessableEntity},
		{"Inf", http.StatusUnprocessableEntity},
		{"-Inf", http.StatusUnprocessableEntity},
		{"1e308", http.StatusUnprocessableEntity},
	} {
		code, body := getJSON(t, ts.URL+"/v1/predict?X="+c.x)
		if code != c.want {
			t.Errorf("predict X=%s = %d %v, want %d", c.x, code, body, c.want)
		}
		if c.want != http.StatusOK && body["code"] != CodeUnprocessable {
			t.Errorf("predict X=%s envelope = %v, want code %q", c.x, body, CodeUnprocessable)
		}
	}
}

// newEngineServer hosts an arbitrary engine kind behind the HTTP
// handler — the decoupling fivm.AnyEngine buys: the same pipeline
// serves count, float, COVAR, and join workloads.
func newEngineServer(t *testing.T, cfg fivm.Config) (*Server, *httptest.Server) {
	t.Helper()
	eng, err := fivm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(srv))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

var twoRelations = []fivm.RelationSpec{
	{Name: "R", Attrs: []string{"A", "B"}},
	{Name: "S", Attrs: []string{"B", "C"}},
}

// seedBody joins R(A,B) rows 1:1 against S(B,C): 6 R rows over 2 S rows.
const seedBody = `{"updates":[
	{"rel":"S","tuple":[0,10]},
	{"rel":"S","tuple":[1,20]},
	{"rel":"R","tuple":[1,0]},
	{"rel":"R","tuple":[2,0]},
	{"rel":"R","tuple":[3,0]},
	{"rel":"R","tuple":[4,1]},
	{"rel":"R","tuple":[5,1]},
	{"rel":"R","tuple":[6,1]}]}`

func TestHTTPServeCountEngine(t *testing.T) {
	_, ts := newEngineServer(t, fivm.Config{
		Relations: twoRelations,
		Query:     "SELECT B, SUM(1) FROM R NATURAL JOIN S GROUP BY B",
	})
	postUpdates(t, ts, seedBody)

	code, model := getJSON(t, ts.URL+"/v1/model")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/model = %d: %v", code, model)
	}
	if model["kind"] != "count" {
		t.Fatalf("kind = %v, want count", model["kind"])
	}
	if model["total"].(float64) != 6 {
		t.Fatalf("total = %v, want 6", model["total"])
	}
	rows := model["rows"].([]any)
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want 2 groups", rows)
	}
	// Deleting one group's S row erases its 3 joined tuples.
	postUpdates(t, ts, `{"updates":[{"rel":"S","tuple":[0,10],"mult":-1}]}`)
	_, model = getJSON(t, ts.URL+"/v1/model")
	if model["total"].(float64) != 3 {
		t.Fatalf("total after delete = %v, want 3", model["total"])
	}
	// Non-analysis engines refuse /predict with a clear error.
	code, _ = getJSON(t, ts.URL+"/v1/predict?A=1")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("GET /v1/predict on count engine = %d, want 422", code)
	}
}

func TestHTTPServeFloatEngine(t *testing.T) {
	_, ts := newEngineServer(t, fivm.Config{
		Relations: twoRelations,
		Query:     "SELECT SUM(A * C) FROM R NATURAL JOIN S",
	})
	postUpdates(t, ts, seedBody)

	code, model := getJSON(t, ts.URL+"/v1/model")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/model = %d: %v", code, model)
	}
	if model["kind"] != "float" {
		t.Fatalf("kind = %v, want float", model["kind"])
	}
	// SUM(A*C) = (1+2+3)*10 + (4+5+6)*20 = 360.
	if model["total"].(float64) != 360 {
		t.Fatalf("total = %v, want 360", model["total"])
	}

	code, stats := getJSON(t, ts.URL+"/v1/stats")
	if code != http.StatusOK || stats["ingested"].(float64) != 8 {
		t.Fatalf("GET /v1/stats = %d: %v", code, stats)
	}
}

func TestHTTPServeCovarEngine(t *testing.T) {
	_, ts := newEngineServer(t, fivm.Config{
		Relations: twoRelations,
		Attrs:     []string{"A", "C"},
	})

	// Before any data the COVAR result is empty: /model reports 503 per
	// the unified empty-join convention.
	code, _ := getJSON(t, ts.URL+"/v1/model")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("GET /v1/model on empty covar = %d, want 503", code)
	}

	postUpdates(t, ts, seedBody)
	code, model := getJSON(t, ts.URL+"/v1/model")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/model = %d: %v", code, model)
	}
	if model["kind"] != "covar" {
		t.Fatalf("kind = %v, want covar", model["kind"])
	}
	if model["count"].(float64) != 6 {
		t.Fatalf("count = %v, want 6", model["count"])
	}
	sums := model["sums"].(map[string]any)
	if sums["A"].(float64) != 21 || sums["C"].(float64) != 90 {
		t.Fatalf("sums = %v, want A=21 C=90", sums)
	}
}
