// Package baseline implements the comparison systems of the paper's
// evaluation claims:
//
//   - FlatIVM: classical first-order incremental view maintenance of the
//     *flat* join result plus independently maintained scalar aggregates
//     (no factorization, no ring sharing) — the DBToaster-style
//     comparator. It pays to materialize the join, which can be much
//     larger than the factorized views and has many repeating values.
//   - Reeval: full re-evaluation of the aggregates from scratch after
//     every batch.
//
// Both produce the same COVAR statistics as the F-IVM engine, which the
// equivalence tests exploit.
package baseline

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
)

// RelSpec names one input relation and its schema.
type RelSpec struct {
	Name   string
	Schema value.Schema
}

// FlatIVM maintains the flat natural join of the input relations under
// updates, and on top of it the unshared scalar aggregates SUM(1),
// SUM(X_i), and SUM(X_i*X_j) over the continuous attributes aggAttrs.
// Each aggregate is updated independently per delta tuple — the
// no-sharing strategy F-IVM's compound ring replaces.
type FlatIVM struct {
	rels     []RelSpec
	schemas  map[string]value.Schema
	data     map[string]*relation.Map[int64]
	join     *relation.Map[int64]
	joinIdx  []int // positions of aggAttrs in the join schema
	aggAttrs []string

	count float64
	sums  []float64
	prods []float64 // packed upper triangle
}

// NewFlatIVM builds the baseline over the given relations and aggregate
// attributes.
func NewFlatIVM(rels []RelSpec, aggAttrs []string) (*FlatIVM, error) {
	f := &FlatIVM{
		rels:     rels,
		schemas:  make(map[string]value.Schema, len(rels)),
		data:     make(map[string]*relation.Map[int64], len(rels)),
		aggAttrs: aggAttrs,
		sums:     make([]float64, len(aggAttrs)),
		prods:    make([]float64, len(aggAttrs)*(len(aggAttrs)+1)/2),
	}
	full := value.NewSchema()
	for _, r := range rels {
		if _, dup := f.data[r.Name]; dup {
			return nil, fmt.Errorf("baseline: duplicate relation %s", r.Name)
		}
		f.schemas[r.Name] = r.Schema
		f.data[r.Name] = relation.New[int64](r.Schema)
		full = full.Union(r.Schema)
	}
	f.join = relation.New[int64](full)
	f.joinIdx = make([]int, len(aggAttrs))
	for i, a := range aggAttrs {
		j := full.Index(a)
		if j < 0 {
			return nil, fmt.Errorf("baseline: aggregate attribute %s not in join schema", a)
		}
		f.joinIdx[i] = j
	}
	return f, nil
}

// Init bulk-loads the initial database: sources are set, the flat join
// is computed once, and the aggregates are accumulated over it.
func (f *FlatIVM) Init(data map[string][]value.Tuple) error {
	var z ring.Ints
	for _, r := range f.rels {
		f.data[r.Name] = relation.FromTuples[int64](z, r.Schema, data[r.Name])
	}
	canonical := f.join.Schema()
	j := f.computeJoin(nil, nil)
	if !j.Schema().Equal(canonical) {
		// The greedy join order permutes attributes; reproject into the
		// canonical schema the aggregate indexes address.
		j = relation.Aggregate[int64](z, j, canonical, "", nil)
	}
	f.join = j
	f.count = 0
	for i := range f.sums {
		f.sums[i] = 0
	}
	for i := range f.prods {
		f.prods[i] = 0
	}
	f.join.Each(func(t value.Tuple, mult int64) {
		f.accumulate(t, mult)
	})
	return nil
}

// computeJoin joins all base relations, substituting repl for relation
// exclude when non-empty; the join order greedily follows shared
// attributes to avoid Cartesian blowups.
func (f *FlatIVM) computeJoin(excludeData, repl *relation.Map[int64]) *relation.Map[int64] {
	var z ring.Ints
	operands := make([]*relation.Map[int64], 0, len(f.rels))
	for _, r := range f.rels {
		d := f.data[r.Name]
		if d == excludeData && repl != nil {
			d = repl
		}
		operands = append(operands, d)
	}
	// Start from the replacement (delta) if present, else the first.
	start := 0
	if repl != nil {
		for i, o := range operands {
			if o == repl {
				start = i
				break
			}
		}
	}
	cur := operands[start]
	remaining := append(append([]*relation.Map[int64]{}, operands[:start]...), operands[start+1:]...)
	for len(remaining) > 0 {
		// Pick the operand sharing the most attributes with cur.
		best, bestShared := 0, -1
		for i, o := range remaining {
			s := cur.Schema().Intersect(o.Schema()).Len()
			if s > bestShared {
				best, bestShared = i, s
			}
		}
		cur = relation.Join[int64](z, cur, remaining[best])
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return cur
}

// accumulate folds one flat join tuple (with multiplicity) into every
// scalar aggregate independently: count, m sums, and m(m+1)/2 products,
// each recomputing the attribute values — the unshared work F-IVM's
// compound payload amortizes.
func (f *FlatIVM) accumulate(t value.Tuple, mult int64) {
	w := float64(mult)
	f.count += w
	m := len(f.aggAttrs)
	for i := 0; i < m; i++ {
		f.sums[i] += w * t[f.joinIdx[i]].AsFloat()
	}
	k := 0
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			f.prods[k] += w * t[f.joinIdx[i]].AsFloat() * t[f.joinIdx[j]].AsFloat()
			k++
		}
	}
}

// Apply maintains the join and aggregates under a batch of updates,
// one delta per touched relation. A batch it refuses (see checkBatch)
// changes nothing.
func (f *FlatIVM) Apply(ups []view.Update) error {
	err := checkBatch(ups, f.schemas, func(rel string, t value.Tuple) int {
		m, _ := f.data[rel].Get(t)
		return int(m)
	})
	if err != nil {
		return err
	}
	var z ring.Ints
	byRel := map[string]*relation.Map[int64]{}
	var order []string
	for _, u := range ups {
		d, ok := byRel[u.Rel]
		if !ok {
			d = relation.New[int64](f.schemas[u.Rel])
			byRel[u.Rel] = d
			order = append(order, u.Rel)
		}
		d.Merge(z, u.Tuple, int64(u.Mult))
	}
	for _, name := range order {
		delta := byRel[name]
		if delta.Len() == 0 {
			continue
		}
		// δJ = δR ⋈ all other base relations (first-order delta).
		dj := f.computeJoin(f.data[name], delta)
		// Reproject into the canonical join schema before merging.
		if !dj.Schema().Equal(f.join.Schema()) {
			dj = relation.Aggregate[int64](z, dj, f.join.Schema(), "", nil)
		}
		f.join.MergeAll(z, dj)
		dj.Each(func(t value.Tuple, mult int64) {
			f.accumulate(t, mult)
		})
		f.data[name].MergeAll(z, delta)
	}
	return nil
}

// Count returns the maintained SUM(1).
func (f *FlatIVM) Count() float64 { return f.count }

// Sum returns the maintained SUM(attr_i).
func (f *FlatIVM) Sum(i int) float64 { return f.sums[i] }

// Prod returns the maintained SUM(attr_i * attr_j).
func (f *FlatIVM) Prod(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	m := len(f.aggAttrs)
	return f.prods[i*m-i*(i-1)/2+(j-i)]
}

// JoinSize returns the number of distinct tuples in the maintained flat
// join — the materialization F-IVM avoids.
func (f *FlatIVM) JoinSize() int { return f.join.Len() }

// checkBatch refuses a batch before anything applies it: every update
// must name a known relation with a tuple of its arity, and no tuple's
// multiplicity — mult's current one plus the batch's net change — may
// end below zero.
func checkBatch(ups []view.Update, schemas map[string]value.Schema, mult func(rel string, t value.Tuple) int) error {
	type key struct{ rel, tuple string }
	keys := make([]key, len(ups))
	net := make(map[key]int, len(ups))
	for i, u := range ups {
		s, ok := schemas[u.Rel]
		if !ok {
			return fmt.Errorf("baseline: unknown relation %s", u.Rel)
		}
		if len(u.Tuple) != s.Len() {
			return fmt.Errorf("baseline: tuple %v does not match relation %s%v", u.Tuple, u.Rel, s)
		}
		keys[i] = key{u.Rel, u.Tuple.Encode()}
		net[keys[i]] += u.Mult
	}
	for i, u := range ups {
		if n := mult(u.Rel, u.Tuple) + net[keys[i]]; n < 0 {
			return fmt.Errorf("baseline: the batch leaves tuple %v of relation %s with multiplicity %d", u.Tuple, u.Rel, n)
		}
	}
	return nil
}
