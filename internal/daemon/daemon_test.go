package daemon

import (
	"flag"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/fivm"
)

// TestOptionsValidate checks that a flag combination the daemon would
// silently ignore or misread is refused before anything starts, with an
// error naming the flag.
func TestOptionsValidate(t *testing.T) {
	custom := Options{Relations: "R:A,B;S:B,C", Attrs: "A,C"}
	preset := Options{DB: "retailer"}
	with := func(o Options, f func(*Options)) Options { f(&o); return o }
	cases := []struct {
		name string
		o    Options
		want string // "" = valid; otherwise a substring of the error
	}{
		{"custom schema", custom, ""},
		{"preset with rows", with(preset, func(o *Options) { o.Rows = 500 }), ""},
		{"rows without db", with(custom, func(o *Options) { o.Rows = 500 }), "-rows"},
		{"negative rows", with(preset, func(o *Options) { o.Rows = -1 }), "-rows -1 is negative"},
		{"db with relations", with(preset, func(o *Options) { o.Relations = "R:A,B" }), "-db retailer defines its own"},
		{"bad fsync", with(custom, func(o *Options) { o.FsyncPolicy = "sometimes" }), `bad -fsync policy "sometimes"`},
		{"watermark above chan-cap", with(custom, func(o *Options) { o.ChannelCap, o.HighWatermark = 8, 9 }), "HighWatermark 9 exceeds ChannelCap 8"},
		{"worker flags", with(custom, func(o *Options) { o.MaxBatch, o.ChannelCap, o.SegmentBytes, o.Trace = 64, 32, 1024, true }), ""},
		{"negative max-batch", with(custom, func(o *Options) { o.MaxBatch = -1 }), "MaxBatch -1 is negative"},
		{"negative chan-cap", with(custom, func(o *Options) { o.ChannelCap = -1 }), "ChannelCap -1 is negative"},
		{"negative high-watermark", with(custom, func(o *Options) { o.HighWatermark = -1 }), "HighWatermark -1 is negative"},
		{"negative dedup-cap", with(custom, func(o *Options) { o.DedupCap = -1 }), "DedupCap -1 is negative"},
		{"db with query", with(preset, func(o *Options) { o.Query = "SELECT SUM(1) FROM Inventory" }), "-db retailer defines its own"},
		{"load without db", with(custom, func(o *Options) { o.Load = false }), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.o.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Validate() = %v, want nil", err)
			case tc.want != "" && err == nil:
				t.Fatalf("Validate() = nil, want an error containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("Validate() = %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestRegisterFlags pins the one daemon flag set: its defaults, the
// Options field each flag fills, and each flag's group.
func TestRegisterFlags(t *testing.T) {
	var o Options
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	groups := o.RegisterFlags(fs)
	want := Options{Load: true, FsyncPolicy: "interval", FsyncInterval: 100 * time.Millisecond,
		CheckpointInterval: time.Minute, SegmentBytes: 64 << 20, MaxBatch: 8192, ChannelCap: 256}
	if !reflect.DeepEqual(o, want) {
		t.Errorf("defaults = %+v, want %+v", o, want)
	}
	if err := fs.Parse([]string{"-db=d", "-rows=1", "-load=false",
		"-engine=e", "-query=q", "-relations=r", "-features=f", "-attrs=a", "-label=l",
		"-wal=w", "-fsync=always", "-fsync-interval=2s", "-checkpoint-interval=3s", "-segment-bytes=4",
		"-max-batch=5", "-chan-cap=6", "-high-watermark=7", "-dedup-cap=8", "-trace"}); err != nil {
		t.Fatal(err)
	}
	want = Options{DB: "d", Rows: 1, Engine: "e", Query: "q", Relations: "r", Features: "f", Attrs: "a", Label: "l",
		WALDir: "w", FsyncPolicy: "always", FsyncInterval: 2 * time.Second, CheckpointInterval: 3 * time.Second,
		SegmentBytes: 4, MaxBatch: 5, ChannelCap: 6, HighWatermark: 7, DedupCap: 8, Trace: true}
	if !reflect.DeepEqual(o, want) {
		t.Errorf("parsed = %+v, want %+v", o, want)
	}
	count := map[FlagGroup]int{}
	fs.VisitAll(func(f *flag.Flag) { count[groups[f.Name]]++ })
	if want := map[FlagGroup]int{EngineFlag: 6, PresetFlag: 3, WorkerFlag: 10}; !maps.Equal(count, want) || len(groups) != 19 {
		t.Errorf("flags per group = %v (%d grouped), want %v", count, len(groups), want)
	}
}

// TestPresets pins the preset table against the schema each preset's
// generator produces: every feature names a generated attribute, the MI
// features are all categorical or binned (categorical exactly when the
// schema says so), and the default label and Chow-Liu root are MI
// features — the label a regression feature too.
func TestPresets(t *testing.T) {
	for name, p := range Presets {
		t.Run(name, func(t *testing.T) {
			db := p.Generate(100)
			if _, ok := db.Relation(p.Fact); !ok {
				t.Fatalf("fact relation %s not generated", p.Fact)
			}
			attrs := map[string]bool{}
			for _, r := range db.Relations {
				for _, a := range r.Attrs {
					attrs[a] = true
				}
			}
			in := func(list []fivm.FeatureSpec, attr string) bool {
				return slices.ContainsFunc(list, func(f fivm.FeatureSpec) bool { return f.Attr == attr })
			}
			for _, f := range append(slices.Clone(p.Features), p.MIFeatures...) {
				if !attrs[f.Attr] {
					t.Errorf("feature %s is not a generated attribute", f.Attr)
				}
				if f.Categorical != db.IsCategorical(f.Attr) {
					t.Errorf("feature %s: categorical %v, schema says %v", f.Attr, f.Categorical, db.IsCategorical(f.Attr))
				}
			}
			for _, f := range p.MIFeatures {
				if !f.Categorical && f.BinWidth <= 0 {
					t.Errorf("MI feature %s is neither categorical nor binned", f.Attr)
				}
			}
			if !in(p.MIFeatures, p.Label) || !in(p.Features, p.Label) {
				t.Errorf("label %s is not in both feature lists", p.Label)
			}
			if !in(p.MIFeatures, p.Root) {
				t.Errorf("root %s is not an MI feature", p.Root)
			}
		})
	}
}
