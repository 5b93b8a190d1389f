package baseline

import (
	"fmt"

	"repro/fivm"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
)

// Reeval recomputes the COVAR compound aggregate from scratch after
// every update batch: it keeps the base data as multisets and, on each
// Apply, bulk-loads them into a freshly opened covar engine. Even with
// factorized (view-tree) evaluation per batch, paying the full
// computation each time loses to incremental maintenance once batches
// are small relative to the database — the shape E2 demonstrates.
type Reeval struct {
	cfg     fivm.Config
	schemas map[string]value.Schema
	// data holds the current multiset per relation: encoded tuple ->
	// (tuple, multiplicity).
	data    map[string]map[string]weighted
	payload *ring.RangedCovar
}

type weighted struct {
	tuple value.Tuple
	mult  int
}

// NewReeval builds the recomputation baseline over the given relations
// and continuous aggregate attributes.
func NewReeval(rels []RelSpec, aggAttrs []string) (*Reeval, error) {
	r := &Reeval{
		cfg:     fivm.Config{Relations: make([]fivm.RelationSpec, len(rels)), Attrs: aggAttrs},
		schemas: make(map[string]value.Schema, len(rels)),
		data:    make(map[string]map[string]weighted, len(rels)),
	}
	for i, rel := range rels {
		if _, dup := r.schemas[rel.Name]; dup {
			return nil, fmt.Errorf("baseline: duplicate relation %s", rel.Name)
		}
		r.schemas[rel.Name] = rel.Schema
		r.data[rel.Name] = map[string]weighted{}
		r.cfg.Relations[i] = fivm.RelationSpec{Name: rel.Name, Attrs: rel.Schema.Attrs()}
	}
	if _, err := fivm.Open(r.cfg); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	return r, nil
}

// Init loads the initial database and computes the first payload.
func (r *Reeval) Init(data map[string][]value.Tuple) error {
	for name := range data {
		if _, ok := r.data[name]; !ok {
			return fmt.Errorf("baseline: unknown relation %s", name)
		}
	}
	for name := range r.data {
		m := map[string]weighted{}
		for _, t := range data[name] {
			k := t.Encode()
			m[k] = weighted{tuple: t, mult: m[k].mult + 1}
		}
		r.data[name] = m
	}
	return r.recompute()
}

// Apply merges the updates into the base multisets and recomputes the
// payload from scratch. A batch it refuses (see checkBatch) changes
// nothing.
func (r *Reeval) Apply(ups []view.Update) error {
	err := checkBatch(ups, r.schemas, func(rel string, t value.Tuple) int { return r.data[rel][t.Encode()].mult })
	if err != nil {
		return err
	}
	for _, u := range ups {
		m := r.data[u.Rel]
		k := u.Tuple.Encode()
		if w := m[k].mult + u.Mult; w == 0 {
			delete(m, k)
		} else {
			m[k] = weighted{tuple: u.Tuple, mult: w}
		}
	}
	return r.recompute()
}

// recompute opens a fresh covar engine and bulk-loads the current data.
func (r *Reeval) recompute() error {
	eng, err := fivm.Open(r.cfg)
	if err != nil {
		return err
	}
	full := make(map[string][]value.Tuple, len(r.data))
	for name, m := range r.data {
		var ts []value.Tuple
		for _, w := range m {
			for i := 0; i < w.mult; i++ {
				ts = append(ts, w.tuple)
			}
		}
		full[name] = ts
	}
	if err := eng.Init(full); err != nil {
		return err
	}
	r.payload = eng.PublishModel(nil).(*fivm.CovarModel).Payload // nil on the empty join
	return nil
}

// Payload returns the last recomputed compound aggregate, in the
// aggregate attributes' order; nil when the join is empty.
func (r *Reeval) Payload() *ring.RangedCovar { return r.payload }
