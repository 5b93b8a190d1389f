package fivm_test

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/fivm"
	"repro/internal/value"
	"repro/internal/view"
)

// snapshotRoundTrip writes eng's snapshot, restores it into fresh, and
// verifies both engines agree now and keep agreeing after further
// updates (equality judged by the published models' JSON rendering,
// which covers the full result for every kind).
func snapshotRoundTrip(t *testing.T, eng, fresh fivm.AnyEngine) {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := fresh.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sameModels := func(when string) {
		t.Helper()
		a, aErr := eng.PublishModel(nil).ResultJSON()
		b, bErr := fresh.PublishModel(nil).ResultJSON()
		if (aErr == nil) != (bErr == nil) {
			t.Fatalf("%s: result errors diverge: %v vs %v", when, aErr, bErr)
		}
		if got, want := jsonString(t, b), jsonString(t, a); got != want {
			t.Fatalf("%s: restored model %s != original %s", when, got, want)
		}
	}
	sameModels("after restore")
	// Restored engines keep maintaining in lockstep.
	ups := []view.Update{
		{Rel: "R", Tuple: value.T("a3", 7), Mult: 1},
		{Rel: "S", Tuple: value.T("a3", 9, 9), Mult: 1},
	}
	if err := eng.Apply(ups); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Apply(ups); err != nil {
		t.Fatal(err)
	}
	sameModels("after further updates")
}

func jsonString(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := encodeJSON(&b, v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// snapshotConfigs is one workload per engine kind over openRels, the
// covar kind twice: its attributes in the order its ranged payloads are
// laid out in (the tree's post-order, which the former rangedcovar kind
// published) and reversed.
func snapshotConfigs() map[string]fivm.Config {
	return map[string]fivm.Config{
		"count":       {Relations: openRels(), Query: "SELECT A, SUM(1) FROM R NATURAL JOIN S GROUP BY A"},
		"float":       {Relations: openRels(), Query: "SELECT SUM(B * D) FROM R NATURAL JOIN S"},
		"covar":       {Relations: openRels(), Attrs: []string{"B", "D"}},
		"rangedcovar": {Relations: openRels(), Attrs: []string{"D", "B"}},
		"analysis":    {Relations: openRels(), Features: []fivm.FeatureSpec{{Attr: "B"}, {Attr: "C", Categorical: true}, {Attr: "D"}}, Label: "D"},
	}
}

// TestSnapshotRoundTripAllKinds covers the generic codec path for every
// engine kind (Analysis has its own longer-standing test in fivm_test).
func TestSnapshotRoundTripAllKinds(t *testing.T) {
	for name, cfg := range snapshotConfigs() {
		t.Run(name, func(t *testing.T) {
			eng, err := fivm.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Init(toyData()); err != nil {
				t.Fatal(err)
			}
			if err := eng.Apply([]view.Update{{Rel: "R", Tuple: value.T("a2", 11), Mult: 1}}); err != nil {
				t.Fatal(err)
			}
			fresh, err := fivm.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			snapshotRoundTrip(t, eng, fresh)
		})
	}
}

// TestRecordedStreamsStillLoad pins the wire formats: internal/view/
// testdata holds, per engine kind, one FIVMSNAP snapshot (<kind>-v3.snap:
// each relation's tuples or, where that is all the tree keeps of it, its
// anchor view) and one FIVMPART partial (<kind>.part), each taken from
// snapshotConfigs' engine after Init(toyData()) and the three updates
// below, so loading it must land on the state that history reaches here.
// The covar streams are covar-ranged.*, shared by both covar
// configurations: ranged payloads are laid out in the lift order
// whatever order Attrs lists. A stream of any other version is refused
// (TestFormatsRefuseOtherVersions), so a format change bumps the version
// and re-records these files.
func TestRecordedStreamsStillLoad(t *testing.T) {
	const dir = "../internal/view/testdata/"
	current := map[string]string{"covar": "covar-ranged", "rangedcovar": "covar-ranged"}
	for name, cfg := range snapshotConfigs() {
		t.Run(name, func(t *testing.T) {
			open := func() fivm.AnyEngine {
				e, err := fivm.Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			want := open()
			if err := want.Init(toyData()); err != nil {
				t.Fatal(err)
			}
			if err := want.Apply([]view.Update{
				{Rel: "R", Tuple: value.T("a2", 11), Mult: 1},
				{Rel: "S", Tuple: value.T("a1", 2, 3), Mult: -1},
				{Rel: "S", Tuple: value.T("a2", 5, 7), Mult: 2},
			}); err != nil {
				t.Fatal(err)
			}
			read := func(file string) []byte {
				raw, err := os.ReadFile(dir + file)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			base, ok := current[name]
			if !ok {
				base = name
			}
			for _, file := range []string{base + "-v3.snap", base + ".part"} {
				raw := read(file)
				if strings.HasSuffix(file, ".part") {
					merged, err := open().MergePartials([]io.Reader{bytes.NewReader(raw)})
					if err != nil {
						t.Fatalf("%s: %v", file, err)
					}
					if g, w := modelJSON(merged), modelJSON(want.PublishModel(nil)); g != w {
						t.Fatalf("%s merged to %s, want %s", file, g, w)
					}
					continue
				}
				got := open()
				if err := got.ReadSnapshot(bytes.NewReader(raw)); err != nil {
					t.Fatalf("%s: %v", file, err)
				}
				if g, w := snapshotState(t, got), snapshotState(t, want); g != w {
					t.Fatalf("%s loaded to\n%s\nwant\n%s", file, g, w)
				}
			}
			// What is written today has the size of the recorded streams
			// (tuple order within a stream is unspecified, so bytes are
			// compared by length and, above, by what they decode to).
			var snap, part bytes.Buffer
			if err := want.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			if err := want.WritePartial(&part); err != nil {
				t.Fatal(err)
			}
			if rs, rp := read(base+"-v3.snap"), read(base+".part"); snap.Len() != len(rs) || part.Len() != len(rp) {
				t.Fatalf("recorded %d-byte snapshot and %d-byte partial, written today %d and %d",
					len(rs), len(rp), snap.Len(), part.Len())
			}
		})
	}
}

// A snapshot written by one engine kind must be rejected by another:
// the codec tag in the header fails fast instead of misparsing payload
// bytes.
func TestSnapshotRejectsForeignEngineKind(t *testing.T) {
	count, err := fivm.Open(fivm.Config{Relations: openRels(), Query: "SELECT SUM(1) FROM R NATURAL JOIN S"})
	if err != nil {
		t.Fatal(err)
	}
	if err := count.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := count.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	flt, err := fivm.Open(fivm.Config{Relations: openRels(), Query: "SELECT SUM(B) FROM R NATURAL JOIN S"})
	if err != nil {
		t.Fatal(err)
	}
	err = flt.ReadSnapshot(&buf)
	if err == nil || !strings.Contains(err.Error(), "codec") {
		t.Fatalf("restoring a count snapshot into a float engine: err = %v, want codec mismatch", err)
	}
}

// Same kind, different degree (e.g. an operator restarts fivm-serve
// with a changed -attrs list against an existing -wal directory) must also
// fail fast on the codec tag — the wire format depends on the degree.
func TestSnapshotRejectsDegreeMismatch(t *testing.T) {
	wide := open[fivm.AnyEngine](t, fivm.Config{Relations: openRels(), Attrs: []string{"B", "C", "D"}})
	if err := wide.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wide.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	narrow := open[fivm.AnyEngine](t, fivm.Config{Relations: openRels(), Attrs: []string{"B", "D"}})
	err := narrow.ReadSnapshot(&buf)
	if err == nil || !strings.Contains(err.Error(), "codec") {
		t.Fatalf("restoring degree-3 snapshot into degree-2 engine: err = %v, want codec mismatch", err)
	}

	// The generalized ring takes the same guard.
	an := open[fivm.AnyEngine](t, fivm.Config{
		Relations: openRels(),
		Features:  []fivm.FeatureSpec{{Attr: "B"}, {Attr: "D"}},
	})
	if err := an.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := an.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	an3 := open[fivm.AnyEngine](t, fivm.Config{
		Relations: openRels(),
		Features:  []fivm.FeatureSpec{{Attr: "B"}, {Attr: "C", Categorical: true}, {Attr: "D"}},
	})
	err = an3.ReadSnapshot(&buf)
	if err == nil || !strings.Contains(err.Error(), "codec") {
		t.Fatalf("restoring 2-feature analysis snapshot into 3-feature engine: err = %v, want codec mismatch", err)
	}
}

// encodeJSON is a tiny helper kept local to the test file.
func encodeJSON(b *bytes.Buffer, v any) error {
	enc := json.NewEncoder(b)
	return enc.Encode(v)
}
