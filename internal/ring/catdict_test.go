package ring

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/value"
)

// TestCatTableConcurrentIntern: goroutines interning overlapping sets
// of unseen values agree on one id per value, and the ids never change
// afterwards. Run under -race this is also the table's locking test.
func TestCatTableConcurrentIntern(t *testing.T) {
	tab := newCatTable(1 << catBits)
	const workers, values = 8, 500
	got := make([][]CatID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]CatID, values)
			for i := range got[w] {
				// Each worker walks the shared values from its own start.
				n := (i + w*values/workers) % values
				id, err := tab.intern([]byte(fmt.Sprintf("v%d", n)))
				if err != nil {
					t.Error(err)
					return
				}
				got[w][n] = id
				if name := tab.snapshot()[id]; name != fmt.Sprintf("v%d", n) {
					t.Errorf("id %d reads back %q, want v%d", id, name, n)
				}
			}
		}(w)
	}
	wg.Wait()
	seen := map[CatID]bool{0: true}
	for n := 0; n < values; n++ {
		id := got[0][n]
		if seen[id] {
			t.Fatalf("id %d issued twice", id)
		}
		seen[id] = true
		for w := 1; w < workers; w++ {
			if got[w][n] != id {
				t.Fatalf("v%d: worker 0 got id %d, worker %d got %d", n, id, w, got[w][n])
			}
		}
		if again, _ := tab.intern([]byte(fmt.Sprintf("v%d", n))); again != id {
			t.Fatalf("v%d: id moved from %d to %d", n, id, again)
		}
	}
	if len(tab.snapshot()) != values+1 {
		t.Errorf("table holds %d names, want %d", len(tab.snapshot()), values+1)
	}
}

// TestCatTableExhaustion: a full table refuses new values with an error
// and keeps serving the ones it has.
func TestCatTableExhaustion(t *testing.T) {
	tab := newCatTable(3) // ids 0 (the empty key), 1, 2
	a, _ := tab.intern([]byte("a"))
	b, _ := tab.intern([]byte("b"))
	if a != 1 || b != 2 {
		t.Fatalf("ids = %d, %d, want 1, 2", a, b)
	}
	if _, err := tab.intern([]byte("c")); !errors.Is(err, errCatsExhausted) {
		t.Errorf("third value: err = %v, want errCatsExhausted", err)
	}
	if id, err := tab.intern([]byte("a")); err != nil || id != a {
		t.Errorf("known value after exhaustion: (%d, %v)", id, err)
	}
	if id, err := tab.intern(nil); err != nil || id != 0 {
		t.Errorf("empty key: (%d, %v), want id 0", id, err)
	}
}

func TestCategoryKey(t *testing.T) {
	p := NewRelCovarRing(1).LiftCategorical(0)(nil, value.String("category-key"))
	var ids []CatID
	p.Visit(func(i, j int, p1, p2 CatID, v float64) bool {
		ids = append(ids, p1)
		return true
	})
	if len(ids) != 3 || ids[0] != 0 || ids[1] == 0 || ids[1] != ids[2] {
		t.Fatalf("visited parts %v, want [0 id id]", ids)
	}
	if got, want := CategoryKey(ids[1]), value.T("category-key").Encode(); got != want {
		t.Errorf("CategoryKey = %q, want %q", got, want)
	}
	if CategoryKey(0) != "" {
		t.Error("id 0 must be the empty key")
	}
}
