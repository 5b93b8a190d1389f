package main

import (
	"repro/fivm/client"
	"repro/internal/dataset"
	"repro/internal/value"
	"repro/internal/view"
)

// The benchmark's update stream. It is counter-based: update k is a
// pure function of (seed, k), so any client goroutine materialises any
// batch without shared state, and a from-scratch reference for any
// prefix has a closed form.
//
// The stream is a FIFO sliding window over Inventory. Step s inserts a
// fact tuple cloned from a base row (so it is foreign-key consistent
// and inherits the base's zipf item skew) with a measure outside the
// base's range; step s+window deletes it again. The warm-up is steps
// 0..window-1, inserts only. After it, timed update k is
//
//	k even: insert of step window + k/2
//	k odd:  delete of step (k-1)/2
//
// so half the timed updates are deletes, an insert and its delete are
// `window` steps apart (they never meet inside a batch), and the live
// state stays at base + window tuples however long the run lasts.
type stream struct {
	seed    uint64
	window  int
	db      *dataset.Database
	inv     []value.Tuple // base Inventory rows
	weather []value.Tuple // base Weather rows
}

// loadBatch is the bulk-load and warm-up request size.
const loadBatch = 1000

// newStream generates the base database (default Retailer dimensions,
// `rows` Inventory facts) and the stream over it. With preset the base
// is the one fivm-serve -db retailer -rows `rows` generates for itself,
// whatever the seed; the stream over it still follows the seed.
func newStream(seed int64, rows, window int, preset bool) *stream {
	cfg := dataset.DefaultRetailerConfig()
	cfg.InventoryRows = rows
	if !preset {
		cfg.Seed = seed
	}
	db := dataset.Retailer(cfg)
	inv, _ := db.Relation("Inventory")
	wea, _ := db.Relation("Weather")
	return &stream{seed: uint64(seed), window: window, db: db, inv: inv.Tuples, weather: wea.Tuples}
}

// mix is splitmix64 over (seed, k).
func (st *stream) mix(k uint64) uint64 {
	z := st.seed*0x9E3779B97F4A7C15 + k*0xD1B54A32D192ED03 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fact is the Inventory tuple step s inserts (and step s+window
// deletes).
func (st *stream) fact(s int) value.Tuple {
	h := st.mix(uint64(s))
	b := st.inv[h%uint64(len(st.inv))]
	return value.Tuple{b[0], b[1], b[2], value.Int(500 + int64((h>>32)%500))}
}

// update is timed update k.
func (st *stream) update(k int) view.Update {
	if k%2 == 0 {
		return view.Update{Rel: "Inventory", Tuple: st.fact(st.window + k/2), Mult: 1}
	}
	return view.Update{Rel: "Inventory", Tuple: st.fact((k - 1) / 2), Mult: -1}
}

// weatherVersion is Weather row r after its m-th replace (m < 0: the
// base row). Only maxtemp moves.
func (st *stream) weatherVersion(r, m int) value.Tuple {
	t := append(value.Tuple(nil), st.weather[r]...)
	if m >= 0 {
		t[4] = value.Float(t[4].Float() + float64(1+st.mix(1<<40+uint64(m))%4000)/100)
	}
	return t
}

// replace is the m-th Weather replace: rows are visited round-robin, so
// the version a replace deletes is the one replace m-len(weather) wrote.
func (st *stream) replace(m int) []view.Update {
	r, n := m%len(st.weather), len(st.weather)
	return []view.Update{
		{Rel: "Weather", Tuple: st.weatherVersion(r, m-n), Mult: -1},
		{Rel: "Weather", Tuple: st.weatherVersion(r, m), Mult: 1},
	}
}

// batch is timed request j of a workload sending `size` fact updates
// per request, plus one Weather replace on every replaceEvery-th
// request (0: never).
func (st *stream) batch(j, size, replaceEvery int) []view.Update {
	ups := make([]view.Update, 0, size+2)
	for k := j * size; k < (j+1)*size; k++ {
		ups = append(ups, st.update(k))
	}
	if replaceEvery > 0 && j%replaceEvery == 0 {
		ups = append(ups, st.replace(j/replaceEvery)...)
	}
	return ups
}

// replacesIn is how many Weather replaces requests 0..requests-1 carry.
func replacesIn(requests, replaceEvery int) int {
	if replaceEvery <= 0 {
		return 0
	}
	return (requests + replaceEvery - 1) / replaceEvery
}

// warmup is warm-up request j: steps j*loadBatch.. as inserts.
func (st *stream) warmup(j int) []view.Update {
	ups := make([]view.Update, 0, loadBatch)
	for s := j * loadBatch; s < (j+1)*loadBatch && s < st.window; s++ {
		ups = append(ups, view.Update{Rel: "Inventory", Tuple: st.fact(s), Mult: 1})
	}
	return ups
}

// relationNames is the Retailer schema in the order the servers are
// given it: the fact table first (which also makes it the default
// shard-by relation), then the dimension tables.
var relationNames = []string{"Inventory", "Location", "Census", "Item", "Weather"}

// loadBatches cuts the base database into bulk-load requests, dimension
// tables first, so every fact batch joins as soon as it lands.
func (st *stream) loadBatches() [][]view.Update {
	var out [][]view.Update
	for _, name := range append(append([]string(nil), relationNames[1:]...), relationNames[0]) {
		rel, _ := st.db.Relation(name)
		for i := 0; i < len(rel.Tuples); i += loadBatch {
			end := min(i+loadBatch, len(rel.Tuples))
			ups := make([]view.Update, 0, end-i)
			for _, t := range rel.Tuples[i:end] {
				ups = append(ups, view.Update{Rel: name, Tuple: t, Mult: 1})
			}
			out = append(out, ups)
		}
	}
	return out
}

// reference is the database a from-scratch evaluation must see after
// the bulk load, the warm-up, `updates` timed fact updates and
// `replaces` Weather replaces: base ∪ the last `window` inserts, with
// every replaced Weather row at its newest version.
func (st *stream) reference(updates, replaces int) map[string][]value.Tuple {
	data := st.db.TupleMap()
	inv := append([]value.Tuple(nil), st.inv...)
	for s := updates / 2; s < st.window+(updates+1)/2; s++ {
		inv = append(inv, st.fact(s))
	}
	data["Inventory"] = inv
	if replaces > 0 {
		n := len(st.weather)
		wea := make([]value.Tuple, n)
		for r := range wea {
			// The newest m < replaces with m%n == r; negative when the
			// row was never replaced.
			m := replaces - 1 - ((replaces-1-r)%n+n)%n
			wea[r] = st.weatherVersion(r, m)
		}
		data["Weather"] = wea
	}
	return data
}

// wire converts typed updates to the client's request form.
func wire(ups []view.Update) []client.Update {
	out := make([]client.Update, len(ups))
	for i, u := range ups {
		tuple := make([]any, len(u.Tuple))
		for j, v := range u.Tuple {
			switch v.Kind() {
			case value.KindInt:
				tuple[j] = v.Int()
			case value.KindFloat:
				tuple[j] = v.Float()
			case value.KindString:
				tuple[j] = v.Str()
			}
		}
		out[i] = client.NewUpdate(u.Rel, u.Mult, tuple...)
	}
	return out
}
