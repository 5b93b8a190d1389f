package fivm

import (
	"fmt"
	"math"

	"repro/internal/m3"
	"repro/internal/ml"
	"repro/internal/query"
	"repro/internal/ring"
	"repro/internal/view"
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

// Analysis maintains the generalized degree-m COVAR payload over the
// natural join of the configured relations — the flagship instantiation
// of Engine over the relational-COVAR ring. It is not safe for
// concurrent use.
type Analysis struct {
	*Engine[*ring.RelCovar]
	ring      ring.RelCovarRing
	feats     []ml.Feature
	specs     []FeatureSpec
	label     string
	ridgeCfg  ml.RidgeConfig
	binWidths map[string]float64
}

// newAnalysis builds the engine: degree-m ring (m = len(Features)),
// per-feature lifts, variable order, and empty view tree.
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
	a := &Analysis{
		ring:      rg,
		feats:     feats,
		specs:     append([]FeatureSpec(nil), cfg.Features...),
		label:     cfg.Label,
		ridgeCfg:  ridgeCfg,
		binWidths: binWidths,
	}
	a.Engine = newEngine(Engine[*ring.RelCovar]{
		kind:    KindAnalysis,
		tree:    tree,
		codec:   ring.RelCovarCodec{Ring: rg},
		clone:   (*ring.RelCovar).Clone,
		info:    m3.RingInfo{Name: fmt.Sprintf("RingCofactor<double, %d>", m), LiftIndexOf: l.liftIndexOf},
		publish: a.publishModel,
	})
	return a, nil
}

// publishModel builds the immutable AnalysisModel: a deep payload clone
// plus — when a label is configured — a ridge refit warm-started from
// the previously published optimum.
func (a *Analysis) publishModel(prev Model) Model {
	// Features and BinWidths are copied too, upholding the model's
	// every-field-is-a-deep-copy contract — sharing the engine's own
	// slice/map would turn any future mutation of them into a data race
	// visible in every live snapshot.
	binWidths := make(map[string]float64, len(a.binWidths))
	for k, v := range a.binWidths {
		binWidths[k] = v
	}
	m := &AnalysisModel{
		Label:     a.label,
		Payload:   a.ClonePayload(),
		Features:  append([]ml.Feature(nil), a.feats...),
		BinWidths: binWidths,
	}
	m.frozenPartial = a.payloadPartial(func() *ring.RelCovar { return m.Payload })
	if a.label == "" {
		return m
	}
	var warm *ml.RidgeModel
	if p, ok := prev.(*AnalysisModel); ok && p != nil && p.Model != nil {
		// Warm-start from the previously published optimum, on a clone
		// so the published model is never mutated.
		warm = p.Model.Clone()
	}
	model, sigma, err := RidgeFromPayload(m.Payload, m.Features, a.label, warm, a.ridgeCfg)
	if err != nil {
		m.FitErr = err.Error()
	} else {
		m.Model, m.Sigma = model, sigma
	}
	return m
}

// Label returns the configured serving label ("" when ridge fitting in
// published models is disabled).
func (a *Analysis) Label() string { return a.label }

// Features returns the payload indexing metadata.
func (a *Analysis) Features() []ml.Feature { return a.feats }

// FeatureSpecs returns a copy of the configured feature specs —
// unlike Features it preserves BinWidth, which callers interpreting
// binned one-hot categories (keyed by bin index, not raw value) need.
func (a *Analysis) FeatureSpecs() []FeatureSpec {
	return append([]FeatureSpec(nil), a.specs...)
}

// Covar converts the payload to the one-hot-expanded SigmaMatrix for
// the regression solver.
func (a *Analysis) Covar() (*ml.SigmaMatrix, error) {
	return ml.SigmaFromRelCovar(a.Payload(), a.feats)
}

// MI computes the pairwise mutual-information matrix; every feature
// must be categorical or binned. It reads the payload through the same
// Σ as Covar and Ridge (ml.MIFromRelCovar). The Model Selection and
// Chow-Liu Tree tabs both read one matrix (ml.SelectFeatures,
// ml.ChowLiu).
func (a *Analysis) MI() (*ml.MIMatrix, error) {
	return ml.MIFromRelCovar(a.Payload(), a.feats)
}

// Ridge fits (or re-converges, when model is non-nil) a ridge linear
// regression predicting label from the other features — the Regression
// tab. It returns the model and the sigma matrix it was fit against.
func (a *Analysis) Ridge(label string, model *ml.RidgeModel, cfg ml.RidgeConfig) (*ml.RidgeModel, *ml.SigmaMatrix, error) {
	return RidgeFromPayload(a.Payload(), a.feats, label, model, cfg)
}

// RidgeFromPayload fits (or re-converges, when model is non-nil) a
// ridge regression against any COVAR payload — Analysis.Ridge uses the
// live payload; the serving layer uses immutable snapshot clones. The
// passed model is mutated in place. When the one-hot column set has
// drifted since it was fit, surviving columns keep their weights and
// only new ones start at zero (ml.RidgeModel.Remap), so the warm start
// survives a category appearing or dying out.
func RidgeFromPayload(payload *ring.RelCovar, feats []ml.Feature, label string, model *ml.RidgeModel, cfg ml.RidgeConfig) (*ml.RidgeModel, *ml.SigmaMatrix, error) {
	sigma, err := ml.SigmaFromRelCovar(payload, feats)
	if err != nil {
		return nil, nil, err
	}
	cols := sigma.ColumnsOf(label)
	if len(cols) != 1 {
		return nil, nil, fmt.Errorf("fivm: label %s must be a single continuous column (got %d columns)", label, len(cols))
	}
	if model == nil {
		model = ml.NewRidge(sigma, cols[0])
	} else {
		model.Remap(sigma, cols[0])
	}
	if err := model.Fit(sigma, cfg); err != nil {
		return nil, nil, err
	}
	return model, sigma, nil
}

// NewCatalog re-exports query catalog construction for the SQL surface.
func NewCatalog() *query.Catalog { return query.NewCatalog() }

// Parse re-exports the SQL-subset parser.
func Parse(c *query.Catalog, src string) (*query.Query, error) { return query.Parse(c, src) }
