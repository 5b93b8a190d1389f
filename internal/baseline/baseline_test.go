package baseline_test

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/value"
	"repro/internal/view"
)

func twoRelSpecs() []baseline.RelSpec {
	return []baseline.RelSpec{
		{Name: "R", Schema: value.NewSchema("A", "B")},
		{Name: "S", Schema: value.NewSchema("A", "C")},
	}
}

func TestFlatIVMConstructionErrors(t *testing.T) {
	specs := twoRelSpecs()
	if _, err := baseline.NewFlatIVM(append(specs, specs[0]), []string{"B"}); err == nil {
		t.Error("duplicate relation accepted")
	}
	if _, err := baseline.NewFlatIVM(specs, []string{"Z"}); err == nil {
		t.Error("unknown aggregate attribute accepted")
	}
}

func TestFlatIVMSmallJoin(t *testing.T) {
	flat, err := baseline.NewFlatIVM(twoRelSpecs(), []string{"B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	err = flat.Init(map[string][]value.Tuple{
		"R": {value.T("a1", 1), value.T("a2", 2)},
		"S": {value.T("a1", 10), value.T("a1", 20)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Join: (a1,1,10), (a1,1,20).
	if flat.Count() != 2 {
		t.Errorf("count = %v", flat.Count())
	}
	if flat.Sum(0) != 2 || flat.Sum(1) != 30 {
		t.Errorf("sums = %v, %v", flat.Sum(0), flat.Sum(1))
	}
	if flat.Prod(0, 1) != 30 || flat.Prod(1, 0) != 30 {
		t.Errorf("SUM(B*C) = %v / %v", flat.Prod(0, 1), flat.Prod(1, 0))
	}
	if flat.JoinSize() != 2 {
		t.Errorf("join size = %d", flat.JoinSize())
	}

	// Unknown relation in an update batch.
	if err := flat.Apply([]view.Update{{Rel: "Z", Tuple: value.T(1, 1), Mult: 1}}); err == nil {
		t.Error("unknown relation accepted in Apply")
	}
	// A batch that nets to zero is a no-op.
	err = flat.Apply([]view.Update{
		{Rel: "R", Tuple: value.T("a9", 9), Mult: 1},
		{Rel: "R", Tuple: value.T("a9", 9), Mult: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Count() != 2 {
		t.Errorf("count after no-op batch = %v", flat.Count())
	}
}

func TestReevalConstructionErrors(t *testing.T) {
	specs := twoRelSpecs()
	if _, err := baseline.NewReeval(append(specs, specs[0]), []string{"B"}); err == nil {
		t.Error("duplicate relation accepted")
	}
	if _, err := baseline.NewReeval(specs, []string{"Z"}); err == nil {
		t.Error("unknown aggregate attribute accepted")
	}
}

func TestReevalSmallJoinAndErrors(t *testing.T) {
	re, err := baseline.NewReeval(twoRelSpecs(), []string{"B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Init(map[string][]value.Tuple{"Z": nil}); err == nil {
		t.Error("unknown relation in Init accepted")
	}
	err = re.Init(map[string][]value.Tuple{
		"R": {value.T("a1", 1)},
		"S": {value.T("a1", 10), value.T("a1", 20)},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := re.Payload()
	if p.Count() != 2 || p.Sum(1) != 30 {
		t.Errorf("payload = %v", p)
	}
	if err := re.Apply([]view.Update{{Rel: "Z", Tuple: value.T(1, 1), Mult: 1}}); err == nil {
		t.Error("unknown relation in Apply accepted")
	}
	// Deleting a tuple that was never inserted leaves a negative
	// multiplicity, which recomputation must reject loudly rather than
	// silently mis-counting.
	if err := re.Apply([]view.Update{{Rel: "R", Tuple: value.T("ghost", 1), Mult: -1}}); err == nil {
		t.Error("negative multiplicity accepted")
	}
}

func TestReevalDuplicateTuples(t *testing.T) {
	re, err := baseline.NewReeval(twoRelSpecs(), []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	err = re.Init(map[string][]value.Tuple{
		"R": {value.T("a1", 1), value.T("a1", 1)}, // multiplicity 2
		"S": {value.T("a1", 10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Payload().Count(); got != 2 {
		t.Errorf("count with duplicate base tuple = %v, want 2", got)
	}
}

// TestRefusedBatchChangesNothing: a batch either baseline refuses — an
// unknown relation after a valid update, the delete of a tuple the
// relation does not hold, a tuple of the wrong arity — is refused
// whole: nothing of it applies, and later batches run on the state
// before it.
func TestRefusedBatchChangesNothing(t *testing.T) {
	type stats interface {
		Count() float64
		Sum(i int) float64
		Prod(i, j int) float64
	}
	render := func(s stats) string {
		return fmt.Sprint(s.Count(), s.Sum(0), s.Sum(1), s.Prod(0, 0), s.Prod(0, 1), s.Prod(1, 1))
	}
	data := map[string][]value.Tuple{"R": {value.T("a1", 1)}, "S": {value.T("a1", 10)}}
	baselines := map[string]func(t *testing.T) (apply func([]view.Update) error, state func() string){
		"FlatIVM": func(t *testing.T) (func([]view.Update) error, func() string) {
			f, err := baseline.NewFlatIVM(twoRelSpecs(), []string{"B", "C"})
			if err == nil {
				err = f.Init(data)
			}
			if err != nil {
				t.Fatal(err)
			}
			return f.Apply, func() string { return render(f) }
		},
		"Reeval": func(t *testing.T) (func([]view.Update) error, func() string) {
			re, err := baseline.NewReeval(twoRelSpecs(), []string{"B", "C"})
			if err == nil {
				err = re.Init(data)
			}
			if err != nil {
				t.Fatal(err)
			}
			return re.Apply, func() string { return render(re.Payload()) }
		},
	}
	valid := view.Update{Rel: "R", Tuple: value.T("a1", 5), Mult: 1}
	for _, c := range []struct {
		name  string
		batch []view.Update
	}{
		{"unknown relation", []view.Update{valid, {Rel: "Z", Tuple: value.T(1), Mult: 1}}},
		{"delete of an absent tuple", []view.Update{valid, {Rel: "R", Tuple: value.T("ghost", 1), Mult: -1}}},
		{"short tuple", []view.Update{valid, {Rel: "R", Tuple: value.T("a1"), Mult: 1}}},
	} {
		for name, open := range baselines {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				apply, state := open(t)
				before := state()
				if err := apply(c.batch); err == nil {
					t.Fatal("batch accepted")
				}
				for i := 0; i < 2; i++ {
					if got := state(); got != before {
						t.Fatalf("state %s after the refused batch, was %s", got, before)
					}
					if err := apply(nil); err != nil {
						t.Fatalf("an empty batch after the refused one: %v", err)
					}
				}
				if err := apply([]view.Update{valid}); err != nil || state() == before {
					t.Fatalf("the valid update alone: err %v, state %s", err, state())
				}
			})
		}
	}
}
