package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("counter = %d, want 42", c.Load())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Load() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Load())
	}
}

// TestHistogramQuantileAccuracy bounds the estimation error: with
// linear interpolation inside a bucket, a quantile estimate over
// uniform data can be off by at most the width of the bucket that
// holds the target rank.
func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 12)) // 1..2048
	const n = 10_000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i) / float64(n) * 1000) // uniform over (0, 1000]
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	cases := []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}}
	for _, c := range cases {
		got := h.Quantile(c.q)
		// The rank lands in bucket (512, 1024]: error bound = 512.
		lo, hi := bucketFor(h, c.want)
		if got < lo || got > hi {
			t.Errorf("p%v = %v, want within bucket (%v, %v] of true %v", c.q*100, got, lo, hi, c.want)
		}
	}
	if p50, p99, p999 := h.Quantile(0.5), h.Quantile(0.99), h.Quantile(0.999); !(p50 <= p99 && p99 <= p999) {
		t.Errorf("quantiles not monotone: p50=%v p99=%v p999=%v", p50, p99, p999)
	}
	wantSum := 0.0
	for i := 1; i <= n; i++ {
		wantSum += float64(i) / float64(n) * 1000
	}
	if math.Abs(h.Sum()-wantSum) > 1e-6*wantSum {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

// bucketFor returns the (lower, upper] bounds of the bucket containing v.
func bucketFor(h *Histogram, v float64) (lo, hi float64) {
	lo = 0
	for _, b := range h.bounds {
		if v <= b {
			return lo, b
		}
		lo = b
	}
	return lo, math.Inf(1)
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	h.Observe(1e9) // +Inf bucket
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("overflow quantile = %v, want clamp to largest finite bound 10", got)
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("fivm_test_total", `rel="R"`, "A test counter.")
	c.Add(5)
	reg.NewCounter("fivm_test_total", `rel="S"`, "A test counter.")
	reg.GaugeFunc("fivm_test_depth", "", "A test gauge.", func() float64 { return 2.5 })
	h := reg.NewHistogram("fivm_test_seconds", `stage="apply"`, "A test histogram.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# HELP fivm_test_total A test counter.",
		"# TYPE fivm_test_total counter",
		"# TYPE fivm_test_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	samples, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("self-rendered exposition does not parse: %v\n%s", err, text)
	}
	cases := map[string]float64{
		`fivm_test_total{rel="R"}`:                          5,
		`fivm_test_total{rel="S"}`:                          0,
		`fivm_test_depth`:                                   2.5,
		`fivm_test_seconds_bucket{stage="apply",le="0.1"}`:  1,
		`fivm_test_seconds_bucket{stage="apply",le="1"}`:    2,
		`fivm_test_seconds_bucket{stage="apply",le="+Inf"}`: 3,
		`fivm_test_seconds_count{stage="apply"}`:            3,
	}
	for key, want := range cases {
		if got, ok := samples[key]; !ok || got != want {
			t.Errorf("sample %s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	if got := samples[`fivm_test_seconds_sum{stage="apply"}`]; math.Abs(got-100.55) > 1e-9 {
		t.Errorf("histogram sum = %v, want 100.55", got)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	bad := []string{
		"no_value_here",
		"1leading_digit 3",
		"unbalanced{le=\"1\" 3",
		"name{le=1} 3",
		"name 3\nname 4", // duplicate series
		"ok_metric notafloat",
		"# TYPE weird flavor\nok_metric 1",
	}
	for _, payload := range bad {
		if _, err := ParseExposition(strings.NewReader(payload)); err == nil {
			t.Errorf("ParseExposition accepted %q", payload)
		}
	}
	if _, err := ParseExposition(strings.NewReader("")); err == nil {
		t.Error("ParseExposition accepted an empty payload")
	}
}

// TestMetricOpsAllocFree pins the hot-path contract: recording into
// pre-registered series allocates nothing, so pipeline instrumentation
// cannot disturb the serving layer's zero-allocation steady state.
func TestMetricOpsAllocFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c_total", "", "c")
	g := reg.NewGauge("g", "", "g")
	h := reg.NewHistogram("h_seconds", "", "h", LatencyBuckets())
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(17)
		g.Add(-4)
		h.Observe(0.0042)
	}); allocs != 0 {
		t.Errorf("metric ops allocate %.1f per round, want 0", allocs)
	}
}

// TestConcurrentMetricWrites hammers every metric kind from many
// goroutines while a scraper renders — the -race contract for metric
// writes from batchers, the writer and HTTP handlers at once. Counter
// totals must be exact.
func TestConcurrentMetricWrites(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c_total", "", "c")
	g := reg.NewGauge("g", "", "g")
	h := reg.NewHistogram("h_seconds", "", "h", LatencyBuckets())

	const writers, perWriter = 8, 5000
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() { // concurrent scraper
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				if _, err := ParseExposition(strings.NewReader(sb.String())); err != nil {
					t.Errorf("mid-write exposition does not parse: %v", err)
					return
				}
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(float64(i%100) * 1e-5)
			}
		}()
	}
	ww.Wait()
	close(stop)
	scraper.Wait()
	if c.Load() != writers*perWriter {
		t.Fatalf("counter = %d, want %d", c.Load(), writers*perWriter)
	}
	if h.Count() != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", h.Count(), writers*perWriter)
	}
}
