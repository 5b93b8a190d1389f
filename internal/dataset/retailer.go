// Package dataset provides synthetic stand-ins for the paper's two demo
// databases — Retailer and Favorita — plus update-stream generators.
// The real datasets are proprietary (Retailer) or a Kaggle download
// (Favorita); the generators reproduce their schemas, foreign-key
// structure, key skew, and update patterns so that maintenance cost and
// all application behaviour are preserved (see docs/REPRODUCTION.md,
// "Substitutions").
package dataset

import (
	"math/rand"

	"repro/internal/value"
)

// Relation is one generated input relation: its name, schema, and rows.
type Relation struct {
	Name   string
	Attrs  []string
	Tuples []value.Tuple
}

// Schema returns the relation's schema.
func (r Relation) Schema() value.Schema { return value.NewSchema(r.Attrs...) }

// Database is a set of generated relations plus attribute kind metadata.
type Database struct {
	Name      string
	Relations []Relation
	// Categorical lists the attributes that are categorical (all others
	// are continuous).
	Categorical []string
}

// Relation returns the named relation.
func (d *Database) Relation(name string) (Relation, bool) {
	for _, r := range d.Relations {
		if r.Name == name {
			return r, true
		}
	}
	return Relation{}, false
}

// TupleMap converts the database to the map form view.Tree.Init expects.
func (d *Database) TupleMap() map[string][]value.Tuple {
	out := make(map[string][]value.Tuple, len(d.Relations))
	for _, r := range d.Relations {
		out[r.Name] = r.Tuples
	}
	return out
}

// IsCategorical reports whether attr is categorical in this database.
func (d *Database) IsCategorical(attr string) bool {
	for _, a := range d.Categorical {
		if a == attr {
			return true
		}
	}
	return false
}

// RetailerConfig sizes the synthetic Retailer database. The shape
// follows the paper's Figure 2: a large Inventory fact table joining
// Location, Census (via zip), Item, and Weather.
type RetailerConfig struct {
	// Locations is the number of stores (locn values).
	Locations int
	// Dates is the number of dateid values.
	Dates int
	// Items is the number of stock-keeping numbers (ksn values).
	Items int
	// InventoryRows is the number of Inventory fact rows.
	InventoryRows int
	// Zips is the number of zip codes (≤ Locations means shared zips).
	Zips int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultRetailerConfig returns a laptop-scale configuration (~10K fact
// rows) suitable for tests and examples; benchmarks scale it up.
func DefaultRetailerConfig() RetailerConfig {
	return RetailerConfig{
		Locations:     30,
		Dates:         100,
		Items:         200,
		InventoryRows: 10_000,
		Zips:          20,
		Seed:          1,
	}
}

// Retailer attribute lists. Inventory's inventoryunits is the demo's
// regression label. Attribute names follow Figure 2 of the paper.
var (
	retailerInventoryAttrs = []string{"locn", "dateid", "ksn", "inventoryunits"}
	retailerLocationAttrs  = []string{"locn", "zip", "rgn_cd", "clim_zn_nbr", "tot_area_sq_ft", "sell_area_sq_ft", "avghhi", "supertargetdistance", "walmartdistance"}
	retailerCensusAttrs    = []string{"zip", "population", "white", "asian", "pacific", "black", "medianage", "occupiedhouseunits", "houseunits", "families", "households", "husbwife", "males", "females", "householdschildren", "hispanic"}
	retailerItemAttrs      = []string{"ksn", "subcategory", "category", "categoryCluster", "prize"}
	retailerWeatherAttrs   = []string{"locn", "dateid", "rain", "snow", "maxtemp", "mintemp", "meanwind", "thunder"}

	retailerCategorical = []string{"locn", "dateid", "ksn", "zip", "rgn_cd", "clim_zn_nbr", "subcategory", "category", "categoryCluster", "rain", "snow", "thunder"}
)

// RetailerAttrs returns the attribute names of each Retailer relation.
func RetailerAttrs() map[string][]string {
	return map[string][]string{
		"Inventory": retailerInventoryAttrs,
		"Location":  retailerLocationAttrs,
		"Census":    retailerCensusAttrs,
		"Item":      retailerItemAttrs,
		"Weather":   retailerWeatherAttrs,
	}
}

// Retailer generates the synthetic Retailer database: five relations
// joined on (locn, dateid, ksn, zip), with a zipf-skewed fact table.
func Retailer(cfg RetailerConfig) *Database {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Zips <= 0 {
		cfg.Zips = cfg.Locations
	}

	// Location: one row per store; zip drawn from the zip pool.
	location := Relation{Name: "Location", Attrs: retailerLocationAttrs}
	locZip := make([]int, cfg.Locations)
	for l := 0; l < cfg.Locations; l++ {
		zip := rng.Intn(cfg.Zips)
		locZip[l] = zip
		location.Tuples = append(location.Tuples, value.T(
			l, zip,
			rng.Intn(8),                  // rgn_cd
			rng.Intn(15),                 // clim_zn_nbr
			20_000+rng.Float64()*180_000, // tot_area_sq_ft
			10_000+rng.Float64()*90_000,  // sell_area_sq_ft
			30_000+rng.Float64()*120_000, // avghhi
			0.5+rng.Float64()*40,         // supertargetdistance
			0.2+rng.Float64()*25,         // walmartdistance
		))
	}

	// Census: one row per zip.
	census := Relation{Name: "Census", Attrs: retailerCensusAttrs}
	for z := 0; z < cfg.Zips; z++ {
		pop := 5_000 + rng.Intn(95_000)
		houseunits := pop / (2 + rng.Intn(3))
		census.Tuples = append(census.Tuples, value.T(
			z, pop,
			int(float64(pop)*(0.4+rng.Float64()*0.4)),         // white
			int(float64(pop)*rng.Float64()*0.2),               // asian
			int(float64(pop)*rng.Float64()*0.02),              // pacific
			int(float64(pop)*rng.Float64()*0.25),              // black
			25+rng.Float64()*30,                               // medianage
			int(float64(houseunits)*(0.7+rng.Float64()*0.25)), // occupiedhouseunits
			houseunits,
			int(float64(pop)*0.25*(0.8+rng.Float64()*0.4)), // families
			int(float64(pop)*0.35*(0.8+rng.Float64()*0.4)), // households
			int(float64(pop)*0.2*(0.8+rng.Float64()*0.4)),  // husbwife
			pop/2+rng.Intn(pop/10+1),                       // males
			pop/2+rng.Intn(pop/10+1),                       // females
			int(float64(pop)*0.15*(0.8+rng.Float64()*0.4)), // householdschildren
			int(float64(pop)*rng.Float64()*0.3),            // hispanic
		))
	}

	// Item: one row per ksn; category hierarchy cluster > category >
	// subcategory.
	item := Relation{Name: "Item", Attrs: retailerItemAttrs}
	for k := 0; k < cfg.Items; k++ {
		cluster := rng.Intn(8)
		category := cluster*4 + rng.Intn(4)
		sub := category*5 + rng.Intn(5)
		item.Tuples = append(item.Tuples, value.T(
			k, sub, category, cluster,
			0.5+rng.Float64()*99.5, // prize
		))
	}

	// Weather: one row per (locn, dateid) pair that appears in
	// Inventory; generated below alongside the facts so the join is
	// never empty.
	type ld struct{ l, d int }
	weatherSeen := map[ld]bool{}
	weather := Relation{Name: "Weather", Attrs: retailerWeatherAttrs}

	// Inventory facts: zipf-ish skew on items (popular items updated
	// more), uniform stores/dates.
	inventory := Relation{Name: "Inventory", Attrs: retailerInventoryAttrs}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(cfg.Items-1))
	for i := 0; i < cfg.InventoryRows; i++ {
		l := rng.Intn(cfg.Locations)
		d := rng.Intn(cfg.Dates)
		k := int(zipf.Uint64())
		units := rng.Intn(500)
		inventory.Tuples = append(inventory.Tuples, value.T(l, d, k, units))
		if !weatherSeen[ld{l, d}] {
			weatherSeen[ld{l, d}] = true
			maxt := -5 + rng.Float64()*40
			weather.Tuples = append(weather.Tuples, value.T(
				l, d,
				rng.Intn(2),             // rain
				rng.Intn(2),             // snow
				maxt,                    // maxtemp
				maxt-2-rng.Float64()*10, // mintemp
				rng.Float64()*30,        // meanwind
				rng.Intn(2),             // thunder
			))
		}
	}

	return &Database{
		Name:        "Retailer",
		Relations:   []Relation{inventory, location, census, item, weather},
		Categorical: retailerCategorical,
	}
}
