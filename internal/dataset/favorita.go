package dataset

import (
	"math/rand"

	"repro/internal/value"
)

// FavoritaConfig sizes the synthetic Favorita database (Corporación
// Favorita grocery sales forecasting, Kaggle 2017): a Sales fact table
// joining Items, Stores, Transactions, Oil, and Holiday.
type FavoritaConfig struct {
	// Stores is the number of store ids.
	Stores int
	// Items is the number of item ids.
	Items int
	// Dates is the number of date ids.
	Dates int
	// SalesRows is the number of Sales fact rows.
	SalesRows int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultFavoritaConfig returns a laptop-scale configuration.
func DefaultFavoritaConfig() FavoritaConfig {
	return FavoritaConfig{Stores: 25, Items: 300, Dates: 120, SalesRows: 10_000, Seed: 7}
}

var (
	favoritaSalesAttrs        = []string{"date", "store", "item", "unit_sales", "onpromotion"}
	favoritaItemsAttrs        = []string{"item", "family", "class", "perishable"}
	favoritaStoresAttrs       = []string{"store", "city", "state", "stype", "cluster"}
	favoritaTransactionsAttrs = []string{"date", "store", "transactions"}
	favoritaOilAttrs          = []string{"date", "oilprice"}
	favoritaHolidayAttrs      = []string{"date", "holiday_type", "locale", "transferred"}

	favoritaCategorical = []string{"date", "store", "item", "onpromotion", "family", "class", "perishable", "city", "state", "stype", "cluster", "holiday_type", "locale", "transferred"}
)

// Favorita generates the synthetic Favorita database: six relations
// joined on (date, store, item).
func Favorita(cfg FavoritaConfig) *Database {
	rng := rand.New(rand.NewSource(cfg.Seed))

	items := Relation{Name: "Items", Attrs: favoritaItemsAttrs}
	for i := 0; i < cfg.Items; i++ {
		family := rng.Intn(30)
		items.Tuples = append(items.Tuples, value.T(
			i, family, family*10+rng.Intn(10), rng.Intn(2),
		))
	}

	stores := Relation{Name: "Stores", Attrs: favoritaStoresAttrs}
	for s := 0; s < cfg.Stores; s++ {
		city := rng.Intn(20)
		stores.Tuples = append(stores.Tuples, value.T(
			s, city, city/2, rng.Intn(5), rng.Intn(17),
		))
	}

	oil := Relation{Name: "Oil", Attrs: favoritaOilAttrs}
	holiday := Relation{Name: "Holiday", Attrs: favoritaHolidayAttrs}
	price := 45.0
	for d := 0; d < cfg.Dates; d++ {
		price += rng.NormFloat64()
		if price < 20 {
			price = 20
		}
		oil.Tuples = append(oil.Tuples, value.T(d, price))
		ht := 0 // workday
		if rng.Float64() < 0.1 {
			ht = 1 + rng.Intn(3)
		}
		holiday.Tuples = append(holiday.Tuples, value.T(d, ht, rng.Intn(3), rng.Intn(2)))
	}

	type ds struct{ d, s int }
	txSeen := map[ds]bool{}
	transactions := Relation{Name: "Transactions", Attrs: favoritaTransactionsAttrs}

	sales := Relation{Name: "Sales", Attrs: favoritaSalesAttrs}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(cfg.Items-1))
	for i := 0; i < cfg.SalesRows; i++ {
		d := rng.Intn(cfg.Dates)
		s := rng.Intn(cfg.Stores)
		it := int(zipf.Uint64())
		sales.Tuples = append(sales.Tuples, value.T(
			d, s, it,
			float64(1+rng.Intn(40))+rng.Float64(), // unit_sales
			rng.Intn(2),                           // onpromotion
		))
		if !txSeen[ds{d, s}] {
			txSeen[ds{d, s}] = true
			transactions.Tuples = append(transactions.Tuples, value.T(d, s, 300+rng.Intn(4000)))
		}
	}

	return &Database{
		Name:        "Favorita",
		Relations:   []Relation{sales, items, stores, transactions, oil, holiday},
		Categorical: favoritaCategorical,
	}
}
