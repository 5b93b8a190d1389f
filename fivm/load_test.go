package fivm_test

import (
	"math/rand"
	"testing"

	"repro/fivm"
	"repro/internal/value"
	"repro/internal/view"
)

// TestLoadIsADelta pins the bulk load to the maintenance path it is
// defined by: for every engine kind, Init(data) must leave exactly the
// state a fresh engine reaches when handed the same relations as one
// Apply per relation — whichever order they arrive in — with consistent
// indexes, equal published models, and maintenance counters that still
// read zero (a load is not an update).
func TestLoadIsADelta(t *testing.T) {
	rnd := rand.New(rand.NewSource(29))
	data := map[string][]value.Tuple{}
	for i, rel := range equivRelations() {
		for j := 0; j < 40*(i+1)*(i+1); j++ { // 40, 160, 360: distinct sizes, duplicates included
			data[rel.Name] = append(data[rel.Name], value.T(rnd.Intn(12), rnd.Intn(12)))
		}
	}
	for name, cfg := range equivConfigs() {
		t.Run(name, func(t *testing.T) {
			open := func() fivm.AnyEngine {
				e, err := fivm.Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			viaApply := func(order []string) fivm.AnyEngine {
				e := open()
				for _, rel := range order {
					ups := make([]view.Update, len(data[rel]))
					for i, tp := range data[rel] {
						ups[i] = view.Update{Rel: rel, Tuple: tp, Mult: 1}
					}
					if err := e.Apply(ups); err != nil {
						t.Fatal(err)
					}
				}
				return e
			}
			asc := viaApply([]string{"R", "S", "T"})
			desc := viaApply([]string{"T", "S", "R"})
			want, wantModel := snapshotState(t, asc), modelJSON(asc.PublishModel(nil))
			if got := snapshotState(t, desc); got != want {
				t.Fatalf("descending per-relation deltas differ from ascending:\n%s\nvs\n%s", got, want)
			}
			e := open()
			if err := e.Init(data); err != nil {
				t.Fatal(err)
			}
			if got := snapshotState(t, e); got != want {
				t.Fatalf("Init differs from one Apply per relation:\n%s\nvs\n%s", got, want)
			}
			if st := e.Stats(); st != (view.Stats{}) {
				t.Fatalf("Stats after Init = %+v, want zero", st)
			}
			if got := modelJSON(e.PublishModel(nil)); got != wantModel {
				t.Fatalf("published model %s, want %s", got, wantModel)
			}
			// snapshotIndexes runs VerifyIndexes on every map; the
			// postings built on both sides must agree too.
			compareIndexes(t, snapshotIndexes(t, asc), snapshotIndexes(t, e), "Init vs Apply")
			snapshotIndexes(t, desc)
		})
	}
}
