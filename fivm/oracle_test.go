package fivm_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/fivm"
	"repro/internal/daemon"
	"repro/internal/value"
	"repro/internal/view"
)

// mixedConfigs is one workload per engine kind over R(A,B) and
// S(A,B,C). The greedy order is A → B → C: R is anchored at B beside
// S's subtree, so R keeps its tuples (the step at B probes them) while
// S, its anchor's only operand, keeps only its anchor view — a snapshot
// of these engines carries both forms.
func mixedConfigs() map[string]fivm.Config {
	rels := []fivm.RelationSpec{{Name: "R", Attrs: []string{"A", "B"}}, {Name: "S", Attrs: []string{"A", "B", "C"}}}
	return map[string]fivm.Config{
		"count":    {Relations: rels, Query: "SELECT A, SUM(1) FROM R NATURAL JOIN S GROUP BY A"},
		"float":    {Relations: rels, Query: "SELECT SUM(B * C) FROM R NATURAL JOIN S"},
		"covar":    {Relations: rels, Attrs: []string{"B", "C"}},
		"analysis": {Relations: rels, Features: []fivm.FeatureSpec{{Attr: "B"}, {Attr: "C", Categorical: true}}},
	}
}

// oracleStream returns a seeded update stream over cfg's relations, in
// batches, and the tuples that survive it (one entry per unit of
// multiplicity). It holds inserts, deletes of live tuples, duplicates
// (a live tuple inserted again), and one R tuple inserted twice and
// deleted to zero. A is a string key, every other attribute a small int.
func oracleStream(cfg fivm.Config, seed int64) (batches [][]view.Update, live map[string][]value.Tuple) {
	rnd := rand.New(rand.NewSource(seed))
	live = map[string][]value.Tuple{}
	tuple := func(r fivm.RelationSpec) value.Tuple {
		tp := value.Tuple{value.String(fmt.Sprintf("a%d", rnd.Intn(3)))}
		for range r.Attrs[1:] {
			tp = append(tp, value.Int(int64(rnd.Intn(4))))
		}
		return tp
	}
	zero := value.Tuple{value.String("a0"), value.Int(9)}
	var ups []view.Update
	ups = append(ups, view.Update{Rel: "R", Tuple: zero, Mult: 1}, view.Update{Rel: "R", Tuple: zero, Mult: 1})
	for len(ups) < 150 {
		r := cfg.Relations[rnd.Intn(len(cfg.Relations))]
		l := live[r.Name]
		switch x := rnd.Float64(); {
		case len(l) > 0 && x < 0.3:
			i := rnd.Intn(len(l))
			ups = append(ups, view.Update{Rel: r.Name, Tuple: l[i], Mult: -1})
			live[r.Name] = append(l[:i:i], l[i+1:]...)
		case len(l) > 0 && x < 0.45:
			tp := l[rnd.Intn(len(l))]
			ups = append(ups, view.Update{Rel: r.Name, Tuple: tp, Mult: 1})
			live[r.Name] = append(l, tp)
		default:
			tp := tuple(r)
			ups = append(ups, view.Update{Rel: r.Name, Tuple: tp, Mult: 1})
			live[r.Name] = append(l, tp)
		}
	}
	ups = append(ups, view.Update{Rel: "R", Tuple: zero, Mult: -1}, view.Update{Rel: "R", Tuple: zero, Mult: -1})
	for len(ups) > 0 {
		n := min(1+rnd.Intn(9), len(ups))
		batches, ups = append(batches, ups[:n]), ups[n:]
	}
	return batches, live
}

var numberRE = regexp.MustCompile(`-?[0-9]+(\.[0-9]+)?(e[-+]?[0-9]+)?`)

// sameState reports whether two engineState renderings agree: exactly
// when tol is 0, else with every number within tol (relative, past 1)
// and everything else identical.
func sameState(a, b string, tol float64) bool {
	if tol == 0 || a == b {
		return a == b
	}
	if numberRE.ReplaceAllString(a, "#") != numberRE.ReplaceAllString(b, "#") {
		return false
	}
	na, nb := numberRE.FindAllString(a, -1), numberRE.FindAllString(b, -1)
	for i := range na {
		x, _ := strconv.ParseFloat(na[i], 64)
		y, _ := strconv.ParseFloat(nb[i], 64)
		if math.Abs(x-y) > tol*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
			return false
		}
	}
	return true
}

// TestRestoreEqualsLoadEqualsUpdates is the oracle of what a relation
// keeps: for every engine kind, on a tree whose relations all keep only
// their anchor views and on one that also keeps a relation's tuples, the
// engine restored from a snapshot, the engine Init'ed with the surviving
// tuples, and the engine that ran the stream from empty hold the same
// views, stored sources and result — exactly for the exact rings, within
// 1e-9 for the float ones — and keep agreeing under further updates.
func TestRestoreEqualsLoadEqualsUpdates(t *testing.T) {
	tol := map[string]float64{"count": 0, "float": 1e-9, "covar": 1e-9, "rangedcovar": 1e-9, "analysis": 1e-9}
	for _, set := range []struct {
		name    string
		configs map[string]fivm.Config
		stored  string // the relations that keep tuples, as engineState names them
	}{
		{"anchor views", snapshotConfigs(), ""},
		{"mixed", mixedConfigs(), "R"},
	} {
		for kind, cfg := range set.configs {
			t.Run(set.name+"/"+kind, func(t *testing.T) {
				batches, live := oracleStream(cfg, 7)
				updated := open[fivm.AnyEngine](t, cfg)
				for _, b := range batches {
					if err := updated.Apply(b); err != nil {
						t.Fatal(err)
					}
				}
				var snap bytes.Buffer
				if err := updated.WriteSnapshot(&snap); err != nil {
					t.Fatal(err)
				}
				restored := open[fivm.AnyEngine](t, cfg)
				if err := restored.ReadSnapshot(&snap); err != nil {
					t.Fatal(err)
				}
				loaded := open[fivm.AnyEngine](t, cfg)
				if err := loaded.Init(live); err != nil {
					t.Fatal(err)
				}
				check := func(when string) {
					t.Helper()
					want := snapshotState(t, updated)
					var stored []string
					for _, line := range strings.Split(want, "\n") {
						if name, ok := strings.CutPrefix(line, "source "); ok {
							stored = append(stored, strings.Fields(name)[0])
						}
					}
					if got := strings.Join(stored, ","); got != set.stored {
						t.Fatalf("%s: relations keeping tuples = %q, want %q", when, got, set.stored)
					}
					for name, e := range map[string]fivm.AnyEngine{"restored": restored, "loaded": loaded} {
						if got := snapshotState(t, e); !sameState(got, want, tol[kind]) {
							t.Fatalf("%s: %s engine\n%s\ndiffers from the updated one\n%s", when, name, got, want)
						}
					}
				}
				check("after the stream")
				more, _ := oracleStream(cfg, 8)
				for _, e := range []fivm.AnyEngine{updated, restored, loaded} {
					for _, b := range more[:5] {
						if err := e.Apply(b); err != nil {
							t.Fatal(err)
						}
					}
				}
				check("after further updates")
			})
		}
	}
}

// TestPresetRelationsKeepNoTuples: every relation of the Retailer and
// Favorita presets is its anchor node's only operand, so none keeps a
// tuple map — its anchor view is its only state.
func TestPresetRelationsKeepNoTuples(t *testing.T) {
	for _, db := range []string{"retailer", "favorita"} {
		cfg, _, err := daemon.BuildEngineConfig(db, 100, false, "", "", "", "", "", "")
		if err != nil {
			t.Fatal(err)
		}
		an := open[*fivm.Analysis](t, cfg)
		names := an.RelationNames()
		if want := map[string]int{"retailer": 5, "favorita": 6}[db]; len(names) != want {
			t.Fatalf("%s: %d relations %v, want %d", db, len(names), names, want)
		}
		for _, name := range names {
			if _, ok := an.Tree().Source(name); ok {
				t.Errorf("%s relation %s keeps a tuple map", db, name)
			}
		}
	}
}
