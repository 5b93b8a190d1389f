package ring

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/value"
)

// CatID is the dense id of one encoded category value (a single-value
// tuple key as value.Tuple.Encode writes it) in the package's category
// dictionary. Id 0 is the empty key: the "no category" part of a
// continuous coefficient.
type CatID uint32

// catBits is the width of one CatID inside a packed RelCovar key.
const catBits = 24

// ErrCategoriesFull reports that the dictionary already holds its
// maximum of distinct category values (2^24 − 1 besides the empty key).
var ErrCategoriesFull = errors.New("ring: the category dictionary is full")

// catTable is the append-only intern table behind CatID: it assigns
// ids in first-seen order and never forgets or renumbers one, so a
// packed key stays valid for the life of the process. Codecs and
// readers on other goroutines share it with the writer's lifts; lookups
// of known values take the read lock only.
type catTable struct {
	mu    sync.RWMutex
	ids   map[string]CatID
	names []string // names[id] is the encoded value; names[0] == ""
	limit int      // ids are < limit
}

func newCatTable(limit int) *catTable {
	return &catTable{ids: map[string]CatID{"": 0}, names: []string{""}, limit: limit}
}

// cats is the one dictionary every RelCovar key refers to. It is
// process-wide on purpose: payloads of different engines, decoded
// partials of different shards and test references all compare and
// combine by key, which only works when equal category values carry
// equal ids. It grows by one short string per distinct category value
// ever lifted or decoded and is otherwise invisible: no result depends
// on which id a value received.
var cats = newCatTable(1 << catBits)

// intern returns the id of the encoded value part, assigning the next
// one on first sight.
func (t *catTable) intern(part []byte) (CatID, error) {
	t.mu.RLock()
	id, ok := t.ids[string(part)]
	t.mu.RUnlock()
	if ok {
		return id, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[string(part)]; ok {
		return id, nil
	}
	if len(t.names) >= t.limit {
		return 0, fmt.Errorf("%w (%d distinct values)", ErrCategoriesFull, t.limit-1)
	}
	name := string(part)
	id = CatID(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id, nil
}

// snapshot returns the id -> encoded value table as of now. Entries are
// written once, before the id is handed out, so the returned slice may
// be read without the lock for every id obtained before the call.
func (t *catTable) snapshot() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.names
}

// size returns the number of distinct values interned, the empty key
// not counted.
func (t *catTable) size() int { return len(t.snapshot()) - 1 }

// InternCategory enters categorical value v into the dictionary, as a
// lift of v would, and fails with ErrCategoriesFull when v is new and
// the dictionary is full. An engine's admission check calls it, so a
// lift on the writer only ever looks up values already interned.
func InternCategory(v value.Value) error {
	var buf [32]byte
	_, err := cats.intern(v.AppendEncode(buf[:0]))
	return err
}

// Categories returns the number of distinct category values the
// dictionary holds.
func Categories() int { return cats.size() }

// LimitCategories caps the dictionary at n values beyond those it holds
// now, until restore runs: tests of the full-dictionary path use it. Do
// not run it concurrently with another test that interns values.
func LimitCategories(n int) (restore func()) {
	cats.mu.Lock()
	defer cats.mu.Unlock()
	old := cats.limit
	cats.limit = len(cats.names) + n
	return func() {
		cats.mu.Lock()
		cats.limit = old
		cats.mu.Unlock()
	}
}

// CategoryKey returns the encoded single-value tuple key that id stands
// for ("" for id 0). It panics on an id the dictionary never issued.
func CategoryKey(id CatID) string { return cats.snapshot()[id] }
