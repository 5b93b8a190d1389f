// Package obs is a dependency-free observability kernel for the
// serving pipeline: atomic counters, scrape-time gauges, fixed-bucket
// latency histograms, and a registry that renders
// every registered series in the Prometheus text exposition format
// (version 0.0.4) — hand-rolled so go.mod stays stdlib-only.
//
// Hot-path cost is the design constraint: Counter.Inc and
// Histogram.Observe are a handful of atomic operations on
// pre-registered series and allocate nothing (pinned by
// TestMetricOpsAllocFree), so the maintenance pipeline records
// per-batch timings without disturbing its zero-allocation steady
// state. All formatting cost, quantile estimation included, is paid by
// the scraper, never the writer.
//
// Series are registered once at setup through a Registry — there is no
// dynamic label creation, which is what makes the write path
// allocation-free. Func-backed series (CounterFunc, GaugeFunc) read
// state the owner already maintains (queue depths, snapshot age) at
// scrape time only; every gauge is one.
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Histogram counts observations into fixed buckets (Prometheus
// "le"-style cumulative upper bounds) and keeps the running sum; the
// scraper estimates quantiles from the rendered buckets. Observe is
// lock-free and allocation-free; the bucket layout is fixed at
// construction.
type Histogram struct {
	bounds []float64 // ascending finite upper bounds; +Inf is implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds an unregistered histogram over the given
// ascending finite bucket upper bounds (see also Registry.NewHistogram).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be ascending")
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (~20) and the loop is
	// branch-predictable; sort.SearchFloat64s would cost a closure.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets returns n exponentially growing bucket upper bounds
// starting at start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LatencyBuckets is the standard duration layout: 1µs to ~4s in
// doubling steps, in seconds.
func LatencyBuckets() []float64 { return ExpBuckets(1e-6, 2, 22) }

// Registry holds registered series and renders them. Registration
// happens at setup (methods may be called concurrently but typically
// are not); scraping via WritePrometheus is safe at any time.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

type family struct {
	name, typ, help string
	series          []*series
}

type series struct {
	labels string // pre-rendered pairs, e.g. `rel="R"`; may be ""
	write  func(w io.Writer, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(name, typ, help, labels string, write func(io.Writer, string, string)) {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, typ: typ, help: help}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, f.typ, typ))
	}
	f.series = append(f.series, &series{labels: labels, write: write})
}

// NewCounter registers and returns a counter series. labels are
// pre-rendered Prometheus pairs (`rel="R"`) or "".
func (r *Registry) NewCounter(name, labels, help string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, labels, help, c.Load)
	return c
}

// CounterFunc registers a counter series whose value is read from fn
// at scrape time — for cumulative state the owner already maintains.
func (r *Registry) CounterFunc(name, labels, help string, fn func() uint64) {
	r.register(name, "counter", help, labels, func(w io.Writer, name, labels string) {
		fmt.Fprintf(w, "%s%s %d\n", name, braced(labels), fn())
	})
}

// GaugeFunc registers a gauge series whose value is read from fn at
// scrape time — queue depths, ages, and other instantaneous reads.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	r.register(name, "gauge", help, labels, func(w io.Writer, name, labels string) {
		fmt.Fprintf(w, "%s%s %s\n", name, braced(labels), formatFloat(fn()))
	})
}

// NewHistogram registers and returns a histogram series over the given
// ascending finite bucket upper bounds.
func (r *Registry) NewHistogram(name, labels, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(name, "histogram", help, labels, h.writeExposition)
	return h
}

func (h *Histogram) writeExposition(w io.Writer, name, labels string) {
	prefix := ""
	if labels != "" {
		prefix = labels + ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, prefix, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(labels), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), cum)
}

// WritePrometheus renders every registered family in the text
// exposition format: one # HELP and # TYPE header per family followed
// by its series, in registration order (deterministic output).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cw := &countingWriter{w: w}
	for _, f := range r.families {
		fmt.Fprintf(cw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			s.write(cw, f.name, s.labels)
		}
		if cw.err != nil {
			return cw.err
		}
	}
	return cw.err
}

type countingWriter struct {
	w   io.Writer
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.err = err
	return n, err
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
