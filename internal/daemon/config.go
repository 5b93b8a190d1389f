package daemon

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/fivm"
	"repro/internal/dataset"
	"repro/internal/value"
	"repro/internal/wal"
)

// FlagGroup is the part a daemon flag plays when fivm-cluster fronts
// the daemon's workers. The zero value is a flag the daemon does not
// register.
type FlagGroup int

const (
	// EngineFlag defines the engine: the router and every worker share it.
	EngineFlag FlagGroup = iota + 1
	// PresetFlag picks, sizes or bulk-loads a -db preset.
	PresetFlag
	// WorkerFlag configures one worker's ingest pipeline and WAL.
	WorkerFlag
)

// RegisterFlags registers every Options field except Addr and Logf on
// fs, under the flag names, defaults and help text both serving
// binaries print, and returns each flag's group keyed by flag name.
func (o *Options) RegisterFlags(fs *flag.FlagSet) map[string]FlagGroup {
	engine, preset, worker := flag.NewFlagSet("", 0), flag.NewFlagSet("", 0), flag.NewFlagSet("", 0)
	preset.StringVar(&o.DB, "db", "", "demo database preset: retailer|favorita (refused with -relations/-features/-attrs/-query/-engine)")
	preset.IntVar(&o.Rows, "rows", 0, "fact-table rows for the preset database (0 = preset default)")
	preset.BoolVar(&o.Load, "load", true, "bulk-load the generated preset database at startup")
	var kinds []string
	for _, k := range fivm.Kinds() {
		kinds = append(kinds, string(k))
	}
	engine.StringVar(&o.Engine, "engine", "", "engine kind: "+strings.Join(kinds, "|")+" (default: inferred from the other flags)")
	engine.StringVar(&o.Query, "query", "", `SQL-subset query for count/float engines, e.g. "SELECT A, SUM(1) FROM R NATURAL JOIN S GROUP BY A"`)
	engine.StringVar(&o.Relations, "relations", "", `custom relations, e.g. "R:A,B;S:B,C"`)
	engine.StringVar(&o.Features, "features", "", `analysis features, e.g. "A,B:cat,C:bin=10"`)
	engine.StringVar(&o.Attrs, "attrs", "", `covar aggregate attributes, e.g. "A,B,C"`)
	engine.StringVar(&o.Label, "label", "", "ridge label attribute for analysis engines (preset default when -db is set; empty disables fitting)")
	worker.StringVar(&o.WALDir, "wal", "", "durability directory: write-ahead log + checkpoints, recovered at startup")
	worker.StringVar(&o.FsyncPolicy, "fsync", string(wal.PolicyInterval), "WAL fsync policy: always|interval|off")
	worker.DurationVar(&o.FsyncInterval, "fsync-interval", 100*time.Millisecond, "background WAL fsync period under -fsync interval")
	worker.DurationVar(&o.CheckpointInterval, "checkpoint-interval", time.Minute, "incremental checkpoint period with -wal (<0 disables; a final checkpoint is still written on shutdown)")
	worker.Int64Var(&o.SegmentBytes, "segment-bytes", 64<<20, "WAL segment rotation size")
	worker.IntVar(&o.MaxBatch, "max-batch", 8192, "max raw updates coalesced into one delta batch")
	worker.IntVar(&o.ChannelCap, "chan-cap", 256, "per-relation ingest channel capacity")
	worker.IntVar(&o.DedupCap, "dedup-cap", 0, "idempotency dedup table capacity in recently seen batch groups (0 = 8192)")
	worker.BoolVar(&o.Trace, "trace", false, "log one structured line per batch and per snapshot publish")
	// Each group's own set names its flags, so no second list does.
	groups := map[string]FlagGroup{}
	for g, set := range map[FlagGroup]*flag.FlagSet{EngineFlag: engine, PresetFlag: preset, WorkerFlag: worker} {
		set.VisitAll(func(f *flag.Flag) {
			fs.Var(f.Value, f.Name, f.Usage)
			groups[f.Name] = g
		})
	}
	return groups
}

// Preset is one of the demo's two databases and the one feature list of
// each kind every front end reads: fivm-serve -db serves Features,
// fivm-demo and fivm-bench's application tabs (E3–E6, E8) maintain both
// lists.
type Preset struct {
	// Generate builds the synthetic database with rows fact tuples
	// (0 = the generator's default).
	Generate func(rows int) *dataset.Database
	// Fact is the fact relation, the one the update streams hit.
	Fact string
	// Label is the default label; Root is the Chow-Liu tree's default
	// root.
	Label, Root string
	// Features are the regression (COVAR) features: continuous
	// attributes stay continuous.
	Features []fivm.FeatureSpec
	// MIFeatures are the mutual-information features: every continuous
	// attribute is binned.
	MIFeatures []fivm.FeatureSpec
}

// Presets are the -db databases.
var Presets = map[string]Preset{
	"retailer": {
		Generate: func(rows int) *dataset.Database {
			cfg := dataset.DefaultRetailerConfig()
			if rows > 0 {
				cfg.InventoryRows = rows
			}
			return dataset.Retailer(cfg)
		},
		Fact:  "Inventory",
		Label: "inventoryunits",
		Root:  "ksn",
		Features: []fivm.FeatureSpec{
			{Attr: "inventoryunits"},
			{Attr: "prize"},
			{Attr: "subcategory", Categorical: true},
			{Attr: "category", Categorical: true},
			{Attr: "categoryCluster", Categorical: true},
			{Attr: "avghhi"},
			{Attr: "maxtemp"},
		},
		MIFeatures: []fivm.FeatureSpec{
			{Attr: "inventoryunits", BinWidth: 50},
			{Attr: "ksn", Categorical: true},
			{Attr: "prize", BinWidth: 10},
			{Attr: "subcategory", Categorical: true},
			{Attr: "category", Categorical: true},
			{Attr: "categoryCluster", Categorical: true},
			{Attr: "zip", Categorical: true},
			{Attr: "avghhi", BinWidth: 20_000},
			{Attr: "population", BinWidth: 25_000},
			{Attr: "maxtemp", BinWidth: 5},
			{Attr: "rain", Categorical: true},
			{Attr: "snow", Categorical: true},
		},
	},
	"favorita": {
		Generate: func(rows int) *dataset.Database {
			cfg := dataset.DefaultFavoritaConfig()
			if rows > 0 {
				cfg.SalesRows = rows
			}
			return dataset.Favorita(cfg)
		},
		Fact:  "Sales",
		Label: "unit_sales",
		Root:  "item",
		Features: []fivm.FeatureSpec{
			{Attr: "unit_sales"},
			{Attr: "family", Categorical: true},
			{Attr: "perishable", Categorical: true},
			{Attr: "stype", Categorical: true},
			{Attr: "cluster", Categorical: true},
			{Attr: "oilprice"},
			{Attr: "transactions"},
		},
		MIFeatures: []fivm.FeatureSpec{
			{Attr: "unit_sales", BinWidth: 10},
			{Attr: "item", Categorical: true},
			{Attr: "family", Categorical: true},
			{Attr: "class", Categorical: true},
			{Attr: "perishable", Categorical: true},
			{Attr: "store", Categorical: true},
			{Attr: "city", Categorical: true},
			{Attr: "cluster", Categorical: true},
			{Attr: "onpromotion", Categorical: true},
			{Attr: "oilprice", BinWidth: 5},
			{Attr: "holiday_type", Categorical: true},
			{Attr: "transactions", BinWidth: 500},
		},
	},
}

// BuildEngineConfig resolves the engine configuration from either a
// preset database or the custom CLI options. For presets it also
// resolves the default label (returned via the config) and the initial
// bulk-load data, if any.
func BuildEngineConfig(db string, rows int, load bool, engine, query, relations, features, attrs, label string) (fivm.Config, map[string][]value.Tuple, error) {
	cfg := fivm.Config{Kind: fivm.Kind(engine), Query: query}
	if db != "" && (features != "" || attrs != "" || relations != "" || query != "" || engine != "") {
		// The presets define their own schema, features, and engine
		// kind; silently overriding any of them would serve a different
		// engine than asked, and passing them through would surface as
		// confusing fivm.Open errors blaming flags the user never set.
		return cfg, nil, fmt.Errorf("-db %s defines its own relations, features, and engine kind; drop -relations/-features/-attrs/-query/-engine", db)
	}
	if rows < 0 {
		return cfg, nil, fmt.Errorf("-rows %d is negative (0 selects the preset default)", rows)
	}
	if rows != 0 && db == "" {
		return cfg, nil, errors.New("-rows sizes a -db preset's fact table; it has no effect without -db")
	}
	if db != "" {
		p, ok := Presets[db]
		if !ok {
			return cfg, nil, fmt.Errorf("unknown -db %q (retailer|favorita, or use -relations)", db)
		}
		d := p.Generate(rows)
		for _, r := range d.Relations {
			cfg.Relations = append(cfg.Relations, fivm.RelationSpec{Name: r.Name, Attrs: r.Attrs})
		}
		cfg.Features = slices.Clone(p.Features)
		if label == "" {
			label = p.Label
		}
		cfg.Label = label
		if load {
			return cfg, d.TupleMap(), nil
		}
		return cfg, nil, nil
	}
	var err error
	cfg.Relations, err = ParseRelations(relations)
	if err != nil {
		return cfg, nil, err
	}
	if features != "" {
		cfg.Features, err = ParseFeatures(features)
		if err != nil {
			return cfg, nil, err
		}
	}
	if attrs != "" {
		for _, a := range strings.Split(attrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.Attrs = append(cfg.Attrs, a)
			}
		}
	}
	cfg.Label = label
	return cfg, nil, nil
}

// ParseRelations parses "R:A,B;S:B,C".
func ParseRelations(s string) ([]fivm.RelationSpec, error) {
	if s == "" {
		return nil, errors.New("either -db or -relations is required")
	}
	var out []fivm.RelationSpec
	for _, part := range strings.Split(s, ";") {
		name, attrs, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok || name == "" || attrs == "" {
			return nil, fmt.Errorf("bad relation %q (want Name:attr1,attr2)", part)
		}
		spec := fivm.RelationSpec{Name: strings.TrimSpace(name)}
		for _, a := range strings.Split(attrs, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, fmt.Errorf("empty attribute in relation %q", part)
			}
			spec.Attrs = append(spec.Attrs, a)
		}
		out = append(out, spec)
	}
	return out, nil
}

// ParseFeatures parses "A,B:cat,C:bin=10" — continuous by default,
// ":cat" for categorical, ":bin=W" for equi-width binning (W finite
// and positive).
func ParseFeatures(s string) ([]fivm.FeatureSpec, error) {
	var out []fivm.FeatureSpec
	for _, part := range strings.Split(s, ",") {
		attr, kind, hasKind := strings.Cut(strings.TrimSpace(part), ":")
		if attr == "" {
			return nil, fmt.Errorf("empty feature in %q", s)
		}
		f := fivm.FeatureSpec{Attr: attr}
		if hasKind {
			switch {
			case kind == "cat":
				f.Categorical = true
			case strings.HasPrefix(kind, "bin="):
				w, err := strconv.ParseFloat(kind[len("bin="):], 64)
				if err != nil || !(w > 0 && w <= math.MaxFloat64) { // NaN fails both
					return nil, fmt.Errorf("bad bin width in feature %q", part)
				}
				f.BinWidth = w
			default:
				return nil, fmt.Errorf("bad feature kind %q (want cat or bin=W)", kind)
			}
		}
		out = append(out, f)
	}
	return out, nil
}
