package main

// Every call the benchmark makes into the repository's packages other
// than the client, the dataset generator and the two servers' flags is
// in this file, so a change that shrinks an API sees which seams are
// measured: the from-scratch reference, the /metrics parser, and the
// layer calls of the traced replay.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/fivm"
	"repro/fivm/client"
	"repro/internal/cluster"
	"repro/internal/daemon"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/wal"
)

// retailerRelations is the schema both servers are started with, in the
// order of relationsFlag (and of the -db retailer preset).
func retailerRelations() []fivm.RelationSpec {
	attrs := dataset.RetailerAttrs()
	var specs []fivm.RelationSpec
	for _, name := range relationNames {
		specs = append(specs, fivm.RelationSpec{Name: name, Attrs: attrs[name]})
	}
	return specs
}

var covarConfig = fivm.Config{Relations: retailerRelations(), Attrs: strings.Split(covarAttrs, ",")}

// engineConfig is the engine the workload's server flags resolve to.
func (w workload) engineConfig() (fivm.Config, error) {
	if !w.preset() {
		return covarConfig, nil
	}
	cfg, _, err := daemon.BuildEngineConfig("retailer", 0, false, "", "", "", "", "", "")
	return cfg, err
}

// loadedEngine opens cfg and bulk-loads data.
func loadedEngine(cfg fivm.Config, data map[string][]value.Tuple) (fivm.AnyEngine, error) {
	eng, err := fivm.Open(cfg)
	if err != nil {
		return nil, err
	}
	return eng, eng.Init(data)
}

// referenceModel evaluates the covar model over data from scratch, in
// the shape GET /v1/model serves it. Its count is the join's size, which
// every engine kind must agree on.
func referenceModel(data map[string][]value.Tuple) (map[string]any, error) {
	eng, err := loadedEngine(covarConfig, data)
	if err != nil {
		return nil, err
	}
	return modelBody(eng.PublishModel(nil))
}

func modelBody(m fivm.Model) (map[string]any, error) {
	body, err := m.ResultJSON()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	var out map[string]any
	return out, json.Unmarshal(raw, &out)
}

func parseMetrics(text string) (map[string]float64, error) {
	return obs.ParseExposition(strings.NewReader(text))
}

// byRelation splits a request's updates the way the serving pipeline
// does: one group per relation, in order of first appearance.
func byRelation(ups []view.Update) (order []string, groups map[string][]view.Update) {
	groups = map[string][]view.Update{}
	for _, u := range ups {
		if _, seen := groups[u.Rel]; !seen {
			order = append(order, u.Rel)
		}
		groups[u.Rel] = append(groups[u.Rel], u)
	}
	return order, groups
}

// nullWorker answers every request the way a worker acknowledges a
// write, after reading the body, and does nothing else: what is left is
// the caller's own cost plus the loopback HTTP floor.
func nullWorker() *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_, _ = io.WriteString(w, `{"accepted":0,"applied":true}`)
	}))
}

// replay is the traced in-process replay of one workload's stream: the
// same seeded batches the end-to-end run sends, pushed on one goroutine
// through each layer's public entry point, one span per call.
type replay struct {
	w   workload
	st  *stream
	cfg fivm.Config
	dir string // scratch directory for WAL files

	eng    fivm.AnyEngine // the workload's engine, driven directly
	merger fivm.AnyEngine // data-less engine that merges partials, as the router's does
	prev   fivm.Model
	cli    *client.Client // against a null /v1/update handler
	router http.Handler   // a Router whose shards are null workers
	wal    *wal.WAL
	next   int // next batch of the stream

	shardAcks map[string]float64 // updates the router sent to each null shard
	closers   []func()
}

func newReplay(w workload, seed int64) (*replay, error) {
	cfg, err := w.engineConfig()
	if err != nil {
		return nil, err
	}
	r := &replay{w: w, cfg: cfg, st: newStream(seed, w.rows, w.window, w.preset()), shardAcks: map[string]float64{}}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	if r.dir, err = os.MkdirTemp(buildDir, "trace-"); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { _ = os.RemoveAll(r.dir) })
	// Every engine starts where the end-to-end run's timed window does:
	// base loaded, window warmed up.
	if r.eng, err = loadedEngine(cfg, r.st.reference(0, 0)); err != nil {
		return nil, err
	}
	if r.merger, err = fivm.Open(cfg); err != nil {
		return nil, err
	}
	r.prev = r.eng.PublishModel(nil)

	null := nullWorker()
	r.closers = append(r.closers, null.Close)
	r.cli = client.New(null.URL, client.WithRetries(0))

	var urls []string
	for i := 0; i < 2; i++ {
		s := nullWorker()
		r.closers = append(r.closers, s.Close)
		urls = append(urls, s.URL)
	}
	rt, err := cluster.New(cluster.Config{ShardURLs: urls, Engine: cfg, ShardBy: "Inventory", ProbeInterval: -1})
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, rt.Close)
	r.router = rt.Handler()

	if r.wal, err = wal.Open(wal.Config{Dir: filepath.Join(r.dir, "append"), Fsync: wal.PolicyOff}); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { _ = r.wal.Close() })
	return r, nil
}

func (r *replay) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// onPath reports whether a span is a stage of this workload's request
// path end to end. The WAL, the router and the partials are measured on
// every workload's stream, but only the cluster workload pays for them;
// the spans of the separate passes (count.apply, serve.*, wal.checkpoint,
// wal.recover) are not stages of a request at all.
func (r *replay) onPath(name string) bool {
	switch name {
	case "client.update", "serve.decode", "view.build", "view.apply", "ml.publish":
		return true
	case "cluster.route", "wal.append", "wal.fsync", "fivm.partial_encode", "fivm.partial_merge":
		return r.w.cluster
	}
	return false
}

// step pushes the next batch through every layer. mem, when non-nil,
// is called around each stage instead of the tracer's clock (the
// allocation pass), so runtime.ReadMemStats never sits inside a timed
// span.
func (r *replay) step(t *tracer, mem func(stage string, fn func() error) error) (updates int, err error) {
	j := r.next
	r.next++
	ups := r.st.batch(j, r.w.batch, r.w.replaceEvery)
	wireUps := wire(ups)
	body, err := json.Marshal(map[string]any{"updates": wireUps}) // the client's own encoding, for the server-side stages
	if err != nil {
		return 0, err
	}
	root := t.start("batch", j, -1)
	defer t.end(root)
	stage := func(name string, fn func() error) error {
		if mem != nil {
			return mem(name, fn)
		}
		return t.timed(name, j, root, fn)
	}

	if err := stage("client.update", func() error {
		_, err := r.cli.Update(context.Background(), wireUps, true)
		return err
	}); err != nil {
		return 0, err
	}
	if err := stage("cluster.route", func() error {
		rec := httptest.NewRecorder()
		r.router.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/update?wait=1", bytes.NewReader(body)))
		var ack struct {
			Shards map[string]float64 `json:"shards"`
		}
		if rec.Code != http.StatusAccepted {
			return fmt.Errorf("router answered %d: %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
			return err
		}
		for shard, n := range ack.Shards {
			r.shardAcks[shard] += n
		}
		return nil
	}); err != nil {
		return 0, err
	}
	var decoded []view.Update
	if err := stage("serve.decode", func() error {
		_, decoded, err = serve.DecodeUpdates(bytes.NewReader(body))
		return err
	}); err != nil {
		return 0, err
	}
	order, groups := byRelation(decoded)
	deltas := make([]fivm.Delta, len(order))
	if err := stage("view.build", func() error {
		for i, rel := range order {
			if deltas[i], err = r.eng.BuildDelta(rel, groups[rel]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	shards := make([]*wal.Shard, len(order))
	if err := stage("wal.append", func() error {
		for i, rel := range order {
			if shards[i], err = r.wal.Shard(rel); err != nil {
				return err
			}
			ref := wal.BatchRef{ID: wal.BatchID{Origin: [16]byte{1}, Seq: uint64(j + 1)}, Updates: len(groups[rel])}
			if _, err := shards[i].AppendRefs(groups[rel], []wal.BatchRef{ref}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	if err := stage("wal.fsync", func() error {
		for _, sh := range shards {
			if err := sh.Sync(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	if err := stage("view.apply", func() error {
		for i, rel := range order {
			if err := r.eng.ApplyBuilt(rel, deltas[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	if err := stage("ml.publish", func() error {
		r.prev = r.eng.PublishModel(r.prev)
		return nil
	}); err != nil {
		return 0, err
	}
	if (j+1)%r.w.readEvery == 0 {
		var partial bytes.Buffer
		if err := stage("fivm.partial_encode", func() error { return r.eng.WritePartial(&partial) }); err != nil {
			return 0, err
		}
		// The router merges one partial per shard; two copies of this one
		// cost what two half-sized shards' partials do.
		if err := stage("fivm.partial_merge", func() error {
			_, err := r.merger.MergePartials([]io.Reader{bytes.NewReader(partial.Bytes()), bytes.NewReader(partial.Bytes())})
			return err
		}); err != nil {
			return 0, err
		}
	}
	return len(ups), nil
}

// pass runs steps until `limit` has passed or maxBatches are done, and
// at least until every kind of span has occurred once.
func (r *replay) pass(t *tracer, limit time.Duration, maxBatches int) (batches, updates int, wall time.Duration, err error) {
	t0 := time.Now()
	for batches < r.w.readEvery || (batches < maxBatches && time.Since(t0) < limit) {
		n, err := r.step(t, nil)
		if err != nil {
			return 0, 0, 0, err
		}
		batches++
		updates += n
	}
	return batches, updates, time.Since(t0), nil
}

// allocPass runs `batches` steps counting heap allocations per stage.
func (r *replay) allocPass(batches int) (allocs map[string]float64, updates int, err error) {
	allocs = map[string]float64{}
	var before, after runtime.MemStats
	mem := func(stage string, fn func() error) error {
		runtime.ReadMemStats(&before)
		err := fn()
		runtime.ReadMemStats(&after)
		allocs[stage] += float64(after.Mallocs - before.Mallocs)
		return err
	}
	for i := 0; i < batches; i++ {
		n, err := r.step(nil, mem)
		if err != nil {
			return nil, 0, err
		}
		updates += n
	}
	return allocs, updates, nil
}

// check compares the directly driven engine with a from-scratch
// evaluation of everything replayed so far.
func (r *replay) check() error {
	got := r.eng.PublishModel(nil).Count()
	ref, err := referenceModel(r.st.reference(r.next*r.w.batch, replacesIn(r.next, r.w.replaceEvery)))
	if err != nil {
		return err
	}
	if want, _ := ref["count"].(float64); got != want {
		return fmt.Errorf("replayed engine counts %v, from-scratch reference %v", got, want)
	}
	return nil
}

// countApply replays batches first.. of the stream into a count engine
// (SUM(1) over the same join): the same view tree and delta propagation
// with the cheapest possible ring, so apply(kind) - apply(count) is what
// the workload's ring costs.
func countApply(t *tracer, st *stream, w workload, batches int) error {
	q := "SELECT SUM(1) FROM " + strings.Join(relationNames, " NATURAL JOIN ")
	eng, err := loadedEngine(fivm.Config{Relations: retailerRelations(), Query: q}, st.reference(0, 0))
	if err != nil {
		return err
	}
	for j := 0; j < batches; j++ {
		order, groups := byRelation(st.batch(j, w.batch, w.replaceEvery))
		deltas := make([]fivm.Delta, len(order))
		for i, rel := range order {
			if deltas[i], err = eng.BuildDelta(rel, groups[rel]); err != nil {
				return err
			}
		}
		if err := t.timed("count.apply", j, -1, func() error {
			for i, rel := range order {
				if err := eng.ApplyBuilt(rel, deltas[i]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// pipelineResult is what the hosted pass measures.
type pipelineResult struct {
	// Mean wall time of one request outside the pipeline's own build,
	// apply and publish stages: in-process, and over loopback HTTP.
	handoffUS, httpUS float64
}

// hostedPass hosts a second engine in the serving pipeline and sends
// batches alternately in-process (Server.Ingest and wait) and through
// serve.NewHandler over loopback HTTP. The pipeline's own stage
// histograms give the engine time inside each request, so what is left
// of an in-process request's wall time is the hand-off between
// goroutines, and what an HTTP request adds to that is the wire.
func hostedPass(t *tracer, st *stream, w workload, cfg fivm.Config, limit time.Duration, maxBatches int) (pipelineResult, error) {
	var res pipelineResult
	eng, err := loadedEngine(cfg, st.reference(0, 0))
	if err != nil {
		return res, err
	}
	srv, err := serve.New(eng, serve.Config{})
	if err != nil {
		return res, err
	}
	defer srv.Close()
	ts := httptest.NewServer(serve.NewHandler(srv))
	defer ts.Close()
	cli := client.New(ts.URL, client.WithRetries(0))
	stages := func() (float64, error) {
		var buf bytes.Buffer
		if err := srv.WriteMetrics(&buf); err != nil {
			return 0, err
		}
		m, err := obs.ParseExposition(&buf)
		return m[`fivm_stage_seconds_sum{stage="build"}`] + m[`fivm_stage_seconds_sum{stage="apply"}`] + m[`fivm_stage_seconds_sum{stage="publish"}`], err
	}
	var inStages, httpStages float64
	n := 0
	for t0 := time.Now(); n == 0 || (n < maxBatches && time.Since(t0) < limit); n++ {
		ups := st.batch(2*n, w.batch, w.replaceEvery)
		s0, err := stages()
		if err != nil {
			return res, err
		}
		if err := t.timed("serve.ingest", 2*n, -1, func() error {
			done, err := srv.Ingest(ups)
			if err == nil {
				<-done
			}
			return err
		}); err != nil {
			return res, err
		}
		s1, err := stages()
		if err != nil {
			return res, err
		}
		inStages += s1 - s0

		wireUps := wire(st.batch(2*n+1, w.batch, w.replaceEvery))
		if err := t.timed("serve.http", 2*n+1, -1, func() error {
			_, err := cli.Update(context.Background(), wireUps, true)
			return err
		}); err != nil {
			return res, err
		}
		s2, err := stages()
		if err != nil {
			return res, err
		}
		httpStages += s2 - s1
	}
	ingest, _ := t.total("serve.ingest")
	viaHTTP, _ := t.total("serve.http")
	outside := func(wall time.Duration, stages float64) float64 { return (wall.Seconds() - stages) * 1e6 / float64(n) }
	return pipelineResult{handoffUS: outside(ingest, inStages), httpUS: outside(viaHTTP, httpStages)}, nil
}

// deltaTuples is the engine's count of delta tuples propagated so far.
func (r *replay) deltaTuples() int { return r.eng.Stats().DeltaTuples }

// walBytes is what the append-only log has taken so far.
func (r *replay) walBytes() uint64 { return r.wal.Stats().AppendedBytes }

// copyDir copies the regular files of src, recursively, into dst.
func copyDir(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// walResult is what the durability pass measures.
type walResult struct {
	checkpointMS, recoverMS float64
	replayedBatches         uint64
}

// durablePass hosts a third engine in a pipeline with a WAL, takes the
// boot checkpoint the daemon takes, logs `batches` more requests, and
// then recovers a fresh engine from a copy of the directory made while
// the log still has that tail: checkpoint restore plus replay, what a
// restart after kill -9 pays.
func durablePass(t *tracer, st *stream, w workload, cfg fivm.Config, dir string, batches int) (walResult, error) {
	var res walResult
	live, crashed := filepath.Join(dir, "live"), filepath.Join(dir, "crashed")
	eng, err := loadedEngine(cfg, st.reference(0, 0))
	if err != nil {
		return res, err
	}
	log, err := wal.Open(wal.Config{Dir: live, Fsync: wal.PolicyOff})
	if err != nil {
		return res, err
	}
	defer log.Close()
	srv, err := serve.New(eng, serve.Config{WAL: log, CheckpointInterval: -1})
	if err != nil {
		return res, err
	}
	defer srv.Close()
	if err := t.timed("wal.checkpoint", -1, -1, srv.Checkpoint); err != nil {
		return res, err
	}
	for j := 0; j < batches; j++ {
		done, err := srv.Ingest(st.batch(j, w.batch, w.replaceEvery))
		if err != nil {
			return res, err
		}
		<-done
	}
	want := srv.Snapshot().Count()
	if err := copyDir(crashed, live); err != nil {
		return res, err
	}

	fresh, err := fivm.Open(cfg)
	if err != nil {
		return res, err
	}
	relog, err := wal.Open(wal.Config{Dir: crashed, Fsync: wal.PolicyOff})
	if err != nil {
		return res, err
	}
	defer relog.Close()
	var info serve.RecoveryInfo
	if err := t.timed("wal.recover", -1, -1, func() error {
		info, err = serve.Recover(fresh, relog)
		return err
	}); err != nil {
		return res, err
	}
	if got := fresh.PublishModel(nil).Count(); got != want {
		return res, fmt.Errorf("recovered engine counts %v, the crashed one had %v", got, want)
	}
	cp, _ := t.total("wal.checkpoint")
	rec, _ := t.total("wal.recover")
	return walResult{checkpointMS: float64(cp) / 1e6, recoverMS: float64(rec) / 1e6, replayedBatches: info.ReplayedBatches}, nil
}
