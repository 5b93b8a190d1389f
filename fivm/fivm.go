package fivm

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/m3"
	"repro/internal/ml"
	"repro/internal/query"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/vo"
)

// RelationSpec declares one input relation of the join.
type RelationSpec struct {
	Name  string
	Attrs []string
}

// FeatureSpec declares one attribute participating in the compound
// aggregate. Exactly one interpretation applies:
//
//   - Categorical false, BinWidth 0: continuous — scalar SUM aggregates.
//   - Categorical true: one-hot encoded via the relational ring.
//   - BinWidth > 0: continuous values discretized into equi-width bins
//     and treated as categorical (used for MI over continuous data).
//
// A BinWidth that is neither 0 nor a finite positive number (negative,
// NaN, ±Inf) is an error.
type FeatureSpec struct {
	Attr        string
	Categorical bool
	BinWidth    float64
}

// ErrCategoriesFull is the error CheckUpdate wraps when an update
// carries a category value that the full category dictionary cannot
// take.
var ErrCategoriesFull = ring.ErrCategoriesFull

// Categories returns the number of distinct categorical and binned
// values the process-wide category dictionary holds.
func Categories() int { return ring.Categories() }

// newAnalysis builds the analysis kind, an *Engine[*ring.RelCovar]:
// the generalized degree-m COVAR payload (m = len(Features)) over the
// natural join of the configured relations, with per-feature lifts, a
// variable order and an empty view tree. Its publish closure and admit
// check keep the features, label, bin widths and the fit state its
// models share. The fits of the models it publishes are safe for
// concurrent use (see AnalysisModel.Fit).
func newAnalysis(cfg Config, _ *query.Query) (AnyEngine, error) {
	m := len(cfg.Features)
	if m == 0 {
		return nil, fmt.Errorf("fivm: %s engine needs Features", KindAnalysis)
	}
	if m > ring.MaxRelCovarDegree {
		return nil, fmt.Errorf("fivm: %d features configured, the analysis ring holds at most %d", m, ring.MaxRelCovarDegree)
	}
	if cfg.Ridge != (ml.RidgeConfig{}) && cfg.Label == "" {
		return nil, fmt.Errorf("fivm: Ridge is only consumed when the analysis engine fits a published model; set Label too")
	}
	names := make([]string, m)
	for i, f := range cfg.Features {
		names[i] = f.Attr
	}
	l, err := newLayout(cfg, names)
	if err != nil {
		return nil, err
	}
	rg := ring.NewRelCovarRing(m)
	lifts := make(map[string]ring.Lift[*ring.RelCovar], m)
	feats := make([]ml.Feature, m)
	binWidths := make(map[string]float64)
	var numeric []string
	for i, f := range cfg.Features {
		// NaN fails both comparisons.
		if w := f.BinWidth; w != 0 && !(w > 0 && w <= math.MaxFloat64) {
			return nil, fmt.Errorf("fivm: feature %s: bin width %v is not a finite positive number", f.Attr, w)
		}
		switch {
		case f.BinWidth > 0:
			lifts[f.Attr] = rg.LiftBinned(i, f.BinWidth)
			binWidths[f.Attr] = f.BinWidth
			numeric = append(numeric, f.Attr)
		case f.Categorical:
			lifts[f.Attr] = rg.LiftCategorical(i)
		default:
			lifts[f.Attr] = rg.LiftContinuous(i)
			numeric = append(numeric, f.Attr)
		}
		feats[i] = ml.Feature{Name: f.Attr, Categorical: f.Categorical || f.BinWidth > 0, Index: i}
	}
	if cfg.Label != "" {
		i, ok := l.index[cfg.Label]
		if !ok {
			return nil, fmt.Errorf("fivm: label %s is not a configured feature", cfg.Label)
		}
		if feats[i].Categorical {
			return nil, fmt.Errorf("fivm: label %s is categorical; ridge needs a continuous label", cfg.Label)
		}
	}
	tree, err := view.New(view.Spec[*ring.RelCovar]{Ring: rg, Order: l.order, Relations: l.rels, Lifts: lifts, Numeric: numeric})
	if err != nil {
		return nil, err
	}
	ridgeCfg := cfg.Ridge
	if ridgeCfg == (ml.RidgeConfig{}) {
		ridgeCfg = ml.DefaultRidgeConfig()
	}
	fits := &analysisFits{label: cfg.Label, cfg: ridgeCfg}
	var published uint64 // the models published, each one's version
	var e *Engine[*ring.RelCovar]
	e = newEngine(Engine[*ring.RelCovar]{
		kind:  KindAnalysis,
		tree:  tree,
		codec: ring.RelCovarCodec{Ring: rg},
		clone: (*ring.RelCovar).Clone,
		info:  m3.RingInfo{Name: fmt.Sprintf("RingCofactor<double, %d>", m), LiftIndexOf: l.liftIndexOf},
		fits:  fits,
		// A deep payload clone: the model's ridge fit is not run here
		// but at most once, by the first caller of its Fit (see
		// AnalysisModel). Features and BinWidths are copied too,
		// upholding the model's every-field-is-a-deep-copy contract —
		// sharing the engine's own slice/map would turn any future
		// mutation of them into a data race visible in every live
		// snapshot.
		publish: func() Model {
			bw := make(map[string]float64, len(binWidths))
			for k, v := range binWidths {
				bw[k] = v
			}
			published++
			am := &AnalysisModel{
				Label:     fits.label,
				Payload:   e.ClonePayload(),
				Features:  append([]ml.Feature(nil), feats...),
				BinWidths: bw,
				version:   published,
				fits:      fits,
			}
			am.frozenPartial = e.payloadPartial(func() *ring.RelCovar { return am.Payload })
			return am
		},
		admit: internCategories(l.rels, l.index, feats, binWidths),
	})
	return e, nil
}

// internCategories returns the analysis engine's admission check: it
// interns every categorical and binned value of an update, the values
// its lifts will look up, so a full category dictionary refuses the
// update's batch instead of panicking a lift on the writer.
func internCategories(rels []vo.Rel, index map[string]int, feats []ml.Feature, binWidths map[string]float64) func(view.Update) error {
	type catAttr struct {
		pos   int
		name  string
		width float64
	}
	byRel := make(map[string][]catAttr, len(rels))
	for _, r := range rels {
		for pos, attr := range r.Schema.Attrs() {
			if i, ok := index[attr]; ok && feats[i].Categorical {
				byRel[r.Name] = append(byRel[r.Name], catAttr{pos, attr, binWidths[attr]})
			}
		}
	}
	return func(u view.Update) error {
		for _, c := range byRel[u.Rel] {
			v := u.Tuple[c.pos]
			if c.width > 0 {
				v = value.Int(ring.Bin(v.AsFloat(), c.width))
			}
			if err := ring.InternCategory(v); err != nil {
				return fmt.Errorf("fivm: relation %s: %s = %v: %w", u.Rel, c.name, u.Tuple[c.pos], err)
			}
		}
		return nil
	}
}

// OnFit registers fn to observe every finished ridge fit of a model
// eng published, with the time the fit took (Σ and ridge), on the
// goroutine that ran the fit, once per fitted model, and reports
// whether eng's models fit a ridge model at all: only an analysis
// engine with a Label does, and fn is registered only then. Register
// it before the first publish; a serving layer records its fit metrics
// through it.
func OnFit(eng AnyEngine, fn func(*ml.RidgeModel, time.Duration)) bool {
	e, ok := eng.(*Engine[*ring.RelCovar])
	if !ok || e.fits.label == "" {
		return false
	}
	e.fits.onFit = fn
	return true
}

// analysisFits is what the models of one analysis engine share for
// their fits: the ridge configuration, the observer, and the Σ of the
// newest version fitted, on which the next Σ is built
// (ml.SigmaFromRelCovar's prev). A fit reads nothing else of another
// model's, so its result depends on its own payload alone. Fits of
// different models may run at once on any goroutines; mu guards newest.
type analysisFits struct {
	label string
	cfg   ml.RidgeConfig
	onFit func(*ml.RidgeModel, time.Duration)

	mu sync.Mutex
	// newest is the Σ of the newest version fitted, newestVersion; it is
	// published and never written.
	newest        *ml.SigmaMatrix
	newestVersion uint64
}

// ridgeFit is one model's fit: Σ (nil when it could not be built), the
// ridge model (nil when fitting is disabled or failed) and the error.
type ridgeFit struct {
	sigma *ml.SigmaMatrix
	model *ml.RidgeModel
	err   error
}

// fit builds m's Σ on the newest one, records it as the newest if no
// newer version was fitted meanwhile, and — with a label — fits the
// ridge model to it.
func (f *analysisFits) fit(m *AnalysisModel) ridgeFit {
	t0 := time.Now()
	f.mu.Lock()
	prev := f.newest
	f.mu.Unlock()
	var r ridgeFit
	if r.sigma, r.err = ml.SigmaFromRelCovar(m.Payload, m.Features, prev); r.err != nil {
		return r
	}
	f.mu.Lock()
	if m.version > f.newestVersion {
		f.newest, f.newestVersion = r.sigma, m.version
	}
	f.mu.Unlock()
	if f.label != "" {
		r.model, r.err = fitRidge(r.sigma, f.label, f.cfg)
	}
	if r.model != nil && f.onFit != nil {
		f.onFit(r.model, time.Since(t0))
	}
	return r
}

// fitRidge fits the ridge model predicting label against sigma.
func fitRidge(sigma *ml.SigmaMatrix, label string, cfg ml.RidgeConfig) (*ml.RidgeModel, error) {
	cols := sigma.ColumnsOf(label)
	if len(cols) != 1 {
		return nil, fmt.Errorf("fivm: label %s must be a single continuous column (got %d columns)", label, len(cols))
	}
	return ml.FitRidge(sigma, cols[0], cfg)
}
