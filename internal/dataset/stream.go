package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/value"
	"repro/internal/view"
)

// StreamConfig shapes an update stream against a generated database.
type StreamConfig struct {
	// Relation is the relation receiving updates (typically the fact
	// table: "Inventory" or "Sales").
	Relation string
	// Total is the number of tuple-level updates to generate.
	Total int
	// DeleteRatio in [0, 1] is the fraction of updates that are deletes
	// of previously inserted tuples. The paper maintains under both
	// inserts and deletes; 0 reproduces insert-only online learning.
	DeleteRatio float64
	// Seed makes the stream deterministic.
	Seed int64
}

// Stream is a pre-generated update sequence, cut into bulks by the
// caller (the demo uses bulks of 10K).
type Stream struct {
	Updates []view.Update
}

// Bulks splits the stream into batches of size n (the last may be
// shorter).
func (s *Stream) Bulks(n int) [][]view.Update {
	if n <= 0 {
		n = len(s.Updates)
	}
	var out [][]view.Update
	for i := 0; i < len(s.Updates); i += n {
		j := i + n
		if j > len(s.Updates) {
			j = len(s.Updates)
		}
		out = append(out, s.Updates[i:j])
	}
	return out
}

// NewStream builds an update stream for db: fresh tuples are drawn by
// re-running the relation's generator distribution (via mutate of
// existing rows with new keys), and deletes target previously inserted
// stream tuples, so every delete cancels an earlier insert exactly —
// the well-formedness condition the paper assumes.
func NewStream(db *Database, cfg StreamConfig) (*Stream, error) {
	rel, ok := db.Relation(cfg.Relation)
	if !ok {
		return nil, fmt.Errorf("dataset: relation %s not in database %s", cfg.Relation, db.Name)
	}
	if len(rel.Tuples) == 0 {
		return nil, fmt.Errorf("dataset: relation %s is empty", cfg.Relation)
	}
	if cfg.DeleteRatio < 0 || cfg.DeleteRatio > 1 {
		return nil, fmt.Errorf("dataset: delete ratio %v out of [0,1]", cfg.DeleteRatio)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Stream{}

	var live []value.Tuple // stream-inserted tuples eligible for delete
	for len(s.Updates) < cfg.Total {
		doDelete := len(live) > 0 && rng.Float64() < cfg.DeleteRatio
		if doDelete {
			i := rng.Intn(len(live))
			t := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			s.Updates = append(s.Updates, view.Update{Rel: cfg.Relation, Tuple: t, Mult: -1})
			continue
		}
		// Fresh insert: clone a random base tuple and perturb its
		// non-key numeric fields so fact rows stay FK-consistent with
		// the dimension tables while the measure varies.
		base := rel.Tuples[rng.Intn(len(rel.Tuples))]
		t := make(value.Tuple, len(base))
		copy(t, base)
		for i := range t {
			if t[i].Kind() == value.KindFloat {
				t[i] = value.Float(t[i].Float() * (0.5 + rng.Float64()))
			}
		}
		// Perturb the last attribute if integer-valued measure (e.g.
		// inventoryunits) to vary the label.
		if last := len(t) - 1; t[last].Kind() == value.KindInt && !db.IsCategorical(rel.Attrs[last]) {
			t[last] = value.Int(int64(rng.Intn(500)))
		}
		live = append(live, t)
		s.Updates = append(s.Updates, view.Update{Rel: cfg.Relation, Tuple: t, Mult: 1})
	}
	return s, nil
}

// RoundRobinStream interleaves updates over several relations of the
// database, exercising maintenance paths through different view-tree
// anchors. Each relation receives ~Total/len(relations) updates.
func RoundRobinStream(db *Database, relations []string, total int, deleteRatio float64, seed int64) ([]view.Update, error) {
	per := total / len(relations)
	var streams []*Stream
	for i, r := range relations {
		s, err := NewStream(db, StreamConfig{Relation: r, Total: per, DeleteRatio: deleteRatio, Seed: seed + int64(i)})
		if err != nil {
			return nil, err
		}
		streams = append(streams, s)
	}
	var out []view.Update
	for i := 0; i < per; i++ {
		for _, s := range streams {
			out = append(out, s.Updates[i])
		}
	}
	return out, nil
}
