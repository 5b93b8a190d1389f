package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// body is the request body the client sends for batch j.
func body(t *testing.T, st *stream, j, size, replaceEvery int) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"updates": wire(st.batch(j, size, replaceEvery))})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStreamIsAPureFunctionOfTheSeed(t *testing.T) {
	a, b, other := newStream(7, 2000, 300, false), newStream(7, 2000, 300, false), newStream(8, 2000, 300, false)
	differs := false
	for _, j := range []int{0, 1, 5, 40} {
		if !bytes.Equal(body(t, a, j, 100, 4), body(t, b, j, 100, 4)) {
			t.Fatalf("batch %d: same seed, different request bodies", j)
		}
		differs = differs || !bytes.Equal(body(t, a, j, 100, 4), body(t, other, j, 100, 4))
	}
	if !differs {
		t.Fatal("seeds 7 and 8 generate the same request bodies")
	}
}

func TestStreamBatchShape(t *testing.T) {
	st := newStream(3, 2000, 300, false)
	ups := st.batch(4, 100, 4)
	if len(ups) != 102 {
		t.Fatalf("batch 4 of a replace-every-4 workload has %d updates, want 100 facts + 1 replace pair", len(ups))
	}
	deletes := 0
	for _, u := range ups[:100] {
		if u.Rel != "Inventory" {
			t.Fatalf("fact update on %s", u.Rel)
		}
		if u.Mult < 0 {
			deletes++
		}
	}
	if deletes != 50 {
		t.Fatalf("%d of 100 fact updates are deletes, want half", deletes)
	}
	if len(st.batch(5, 100, 4)) != 100 {
		t.Fatal("batch 5 carries a replace it should not")
	}
}

// The closed-form reference (base ∪ last `window` inserts, newest
// Weather versions) must agree with replaying the whole stream, warm-up
// included, into a fresh engine.
func TestReferenceAgreesWithFullReplay(t *testing.T) {
	const batches, size, replaceEvery = 41, 60, 2
	st := newStream(5, 1500, 250, false)
	eng, err := loadedEngine(covarConfig, st.db.TupleMap())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j*loadBatch < st.window; j++ {
		if err := eng.Apply(st.warmup(j)); err != nil {
			t.Fatal(err)
		}
	}
	// More replaces than Weather rows would take long; 21 of them still
	// cover "replaced once" and "never replaced". The wrap-around is
	// covered by replaying the replaces alone below.
	for j := 0; j < batches; j++ {
		if err := eng.Apply(st.batch(j, size, replaceEvery)); err != nil {
			t.Fatal(err)
		}
	}
	replayed, err := modelBody(eng.PublishModel(nil))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceModel(st.reference(batches*size, replacesIn(batches, replaceEvery)))
	if err != nil {
		t.Fatal(err)
	}
	if replayed["count"] != ref["count"] {
		t.Fatalf("replayed count %v, closed-form reference %v", replayed["count"], ref["count"])
	}
	got, want := covarEntries(replayed), covarEntries(ref)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("%d covar entries replayed, %d in the reference", len(got), len(want))
	}
	for name, x := range want {
		if y := got[name]; !closeTo(x, y) {
			t.Errorf("%s: replayed %v, reference %v", name, y, x)
		}
	}
}

// Weather rows are replaced round-robin; once every row has been
// replaced, a replace deletes the version an earlier replace wrote.
func TestWeatherReplacesWrapAround(t *testing.T) {
	st := newStream(9, 1500, 250, false)
	n := len(st.weather)
	replaces := 2*n + 17
	eng, err := loadedEngine(covarConfig, st.reference(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < replaces; m++ {
		if err := eng.Apply(st.replace(m)); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := referenceModel(st.reference(0, replaces))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := modelBody(eng.PublishModel(nil))
	if err != nil {
		t.Fatal(err)
	}
	if replayed["count"] != ref["count"] {
		t.Fatalf("count %v after %d replaces, reference %v", replayed["count"], replaces, ref["count"])
	}
	got := covarEntries(replayed)
	for name, x := range covarEntries(ref) {
		if !closeTo(x, got[name]) {
			t.Errorf("%s: replayed %v, reference %v", name, got[name], x)
		}
	}
}

func TestDrift(t *testing.T) {
	var samples []sample
	for i := 0; i < 100; i++ { // 100 updates/ms in the first half, 50 in the second
		n := 100
		if i >= 50 {
			n = 50
		}
		samples = append(samples, sample{done: msec(i + 1), updates: n})
	}
	if d := drift(samples, msec(100)); d != 0.5 {
		t.Fatalf("drift %v, want 0.5", d)
	}
}

func msec(n int) time.Duration { return time.Duration(n) * time.Millisecond }
