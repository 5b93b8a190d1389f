package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share its
// batch number; Parent is the index of the enclosing span, -1 for the
// request's root.
type span struct {
	Name    string `json:"name"`
	Batch   int    `json:"batch"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the replay ends. A nil tracer
// records nothing, which is how the untraced pass runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index.
func (t *tracer) start(name string, batch, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Batch: batch, Parent: parent, StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].EndNS = int64(time.Since(t.t0))
	}
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, batch, parent int, fn func() error) error {
	id := t.start(name, batch, parent)
	err := fn()
	t.end(id)
	return err
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTotal is one span name's aggregate.
type layerTotal struct {
	name        string
	calls       int
	total, self time.Duration
}

// totals aggregates spans by name. A span's self time is its duration
// minus its children's (they run one after another on one goroutine, so
// they never overlap).
func (t *tracer) totals() []layerTotal {
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += time.Duration(s.EndNS - s.StartNS)
		}
	}
	by := map[string]*layerTotal{}
	for i, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTotal{name: s.Name}
			by[s.Name] = lt
		}
		d := time.Duration(s.EndNS - s.StartNS)
		lt.calls++
		lt.total += d
		lt.self += d - children[i]
	}
	out := make([]layerTotal, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].total > out[j].total })
	return out
}

// total is one span name's summed duration and call count.
func (t *tracer) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.EndNS - s.StartNS)
			n++
		}
	}
	return d, n
}

// printLayers writes the per-layer table of the traced pass: each
// layer's cost per update and per call, its share of the stage sum (the
// stages on this workload's request path) and its self time.
func printLayers(t *tracer, updates int, onPath func(name string) bool) time.Duration {
	totals := t.totals()
	var stageSum time.Duration
	for _, lt := range totals {
		if onPath(lt.name) {
			stageSum += lt.total
		}
	}
	fmt.Fprintf(os.Stderr, "  %-22s %7s %12s %12s %8s %12s\n", "span", "calls", "ns/update", "us/call", "share", "self us/call")
	for _, lt := range totals {
		share := "-" // the root, a stage this workload's requests skip, or a separate pass
		if onPath(lt.name) {
			share = fmt.Sprintf("%.1f%%", 100*float64(lt.total)/float64(stageSum))
		}
		fmt.Fprintf(os.Stderr, "  %-22s %7d %12.1f %12.2f %8s %12.2f\n", lt.name, lt.calls,
			float64(lt.total)/float64(updates), float64(lt.total)/float64(lt.calls)/1e3, share,
			float64(lt.self)/float64(lt.calls)/1e3)
	}
	return stageSum
}

// maxTracedBatches bounds the span file: the single-tuple workload
// would otherwise record a hundred thousand requests' spans.
const maxTracedBatches = 2000

// traceWorkload is the traced run: separate from the end-to-end run,
// in-process, on one goroutine. It replays the workload's own seeded
// stream through each layer's entry point with spans on, again with
// spans off (the difference is the tracing overhead), once more
// counting allocations, and then measures the layers that need their
// own engine: the count-ring baseline, the serving pipeline's hand-off
// and HTTP cost, and the WAL's checkpoint and recovery.
func traceWorkload(w workload, seed int64, seconds int) (outcome, error) {
	budget := time.Duration(seconds) * time.Second
	r, err := newReplay(w, seed)
	if err != nil {
		return outcome{}, err
	}
	defer r.close()

	t := newTracer()
	delta0 := r.deltaTuples()
	batches, updates, wallOn, err := r.pass(t, budget*3/10, maxTracedBatches)
	if err != nil {
		return outcome{}, err
	}
	deltaTuples := r.deltaTuples() - delta0
	_, updatesOff, wallOff, err := r.pass(nil, budget*3/20, maxTracedBatches)
	if err != nil {
		return outcome{}, err
	}
	allocs, updatesAlloc, err := r.allocPass(min(30, batches))
	if err != nil {
		return outcome{}, err
	}
	walBytes := float64(r.walBytes()) / float64(updates+updatesOff+updatesAlloc)
	correct := true
	if err := r.check(); err != nil {
		fmt.Fprintf(os.Stderr, "  BROKEN: %v\n", err)
		correct = false
	}
	r.eng, r.prev = nil, nil // the next passes load their own engines

	if err := countApply(t, r.st, w, batches); err != nil {
		return outcome{}, err
	}
	hosted, err := hostedPass(t, r.st, w, r.cfg, budget/5, maxTracedBatches/2)
	if err != nil {
		return outcome{}, err
	}
	durable, err := durablePass(t, r.st, w, r.cfg, r.dir, min(30, batches))
	if err != nil {
		return outcome{}, err
	}
	path := filepath.Join(outDir, "trace-"+w.name+".json")
	if err := t.write(path); err != nil {
		return outcome{}, err
	}

	fmt.Fprintf(os.Stderr, "%s seed=%d traced replay: %d batches, %d updates, %d spans in %s\n", w.name, seed, batches, updates, len(t.spans), path)
	stageSum := printLayers(t, updates, r.onPath)
	perUpdate := func(name string) float64 { d, _ := t.total(name); return float64(d) / float64(updates) }
	perCallUS := func(name string) float64 {
		d, n := t.total(name)
		return float64(d) / float64(max(n, 1)) / 1e3
	}
	var ackSum, ackMax float64
	for _, n := range r.shardAcks {
		ackSum += n
		ackMax = max(ackMax, n)
	}
	// One or more numbers per module; README.md ties each to the
	// end-to-end metric it should move.
	values := map[string]float64{
		"client.rtt_us_per_req":          perCallUS("client.update"),
		"serve.decode_ns_per_update":     perUpdate("serve.decode"),
		"serve.decode_allocs_per_update": allocs["serve.decode"] / float64(updatesAlloc),
		"cluster.route_us_per_batch":     perCallUS("cluster.route"),
		"cluster.shard_skew":             ackMax * float64(len(r.shardAcks)) / ackSum,
		"view.build_ns_per_update":       perUpdate("view.build"),
		"view.apply_ns_per_update":       perUpdate("view.apply"),
		"view.apply_allocs_per_update":   allocs["view.apply"] / float64(updatesAlloc),
		"view.delta_tuples_per_update":   float64(deltaTuples) / float64(updates),
		"ring.extra_ns_per_update":       perUpdate("view.apply") - perUpdate("count.apply"),
		"ml.publish_us_per_snapshot":     perCallUS("ml.publish"),
		"wal.append_ns_per_update":       perUpdate("wal.append"),
		"wal.bytes_per_update":           walBytes,
		"wal.fsync_us":                   perCallUS("wal.fsync"),
		"wal.checkpoint_ms":              durable.checkpointMS,
		"wal.recover_ms":                 durable.recoverMS,
		"serve.handoff_us_per_batch":     hosted.handoffUS,
		"serve.http_us_per_req":          hosted.httpUS - hosted.handoffUS,
		"fivm.partial_encode_us":         perCallUS("fivm.partial_encode"),
		"fivm.partial_merge_us":          perCallUS("fivm.partial_merge"),
		"trace.stage_sum_us_per_update":  float64(stageSum) / float64(updates) / 1e3,
		"trace.overhead_share":           (float64(wallOn)/float64(updates))/(float64(wallOff)/float64(updatesOff)) - 1,
	}
	printSorted("per layer", values)
	fmt.Fprintf(os.Stderr, "  replay with spans on %.3f us/update, off %.3f us/update; recovery replayed %d batches\n",
		float64(wallOn)/float64(updates)/1e3, float64(wallOff)/float64(updatesOff)/1e3, durable.replayedBatches)
	// The stages run one after another here and overlap across
	// goroutines and processes end to end, so the two numbers bracket
	// the time transport, scheduling and queueing add or pipelining hides.
	if e2e, err := lastE2E(w.name); err == nil {
		perE2E := 1e6 / e2e.Metrics["updates_per_s"]
		fmt.Fprintf(os.Stderr, "  stage sum %.3f us/update vs end to end %.3f us/update (1e6/updates_per_s, seed %d): remainder %+.3f\n",
			values["trace.stage_sum_us_per_update"], perE2E, e2e.Seed, perE2E-values["trace.stage_sum_us_per_update"])
	} else {
		fmt.Fprintf(os.Stderr, "  stage sum %.3f us/update; run the workload end to end (-trace 0) to see it beside 1e6/updates_per_s\n",
			values["trace.stage_sum_us_per_update"])
	}
	return outcome{correct, batches, 0, values}, nil
}

// lastE2EPath is where an end-to-end run leaves its result for the
// traced run's stage-sum comparison.
func lastE2EPath(workload string) string { return filepath.Join(outDir, "e2e-"+workload+".json") }

func lastE2E(workload string) (*result, error) {
	data, err := os.ReadFile(lastE2EPath(workload))
	if err != nil {
		return nil, err
	}
	var res result
	return &res, json.Unmarshal(data, &res)
}
