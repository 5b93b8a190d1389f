package daemon

import (
	"strings"
	"testing"
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
