package fivm

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/ml"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
)

// AnalysisModel is the Model an Analysis engine publishes: a deep clone
// of the generalized COVAR payload plus — when a Label is configured —
// the ridge regression refit against it. Every field is a deep copy or
// derived purely from one, so any number of readers may use it
// concurrently without coordination.
type AnalysisModel struct {
	frozenPartial // over Payload
	// Label is the ridge model's target attribute ("" when fitting is
	// disabled).
	Label string
	// Payload is a deep clone of the maintained compound aggregate
	// (nil when the join is empty).
	Payload *ring.RelCovar
	// Features is the payload indexing metadata.
	Features []ml.Feature
	// BinWidths maps binned features to their width: their one-hot
	// categories are bin indexes, so Predict inputs must be binned the
	// same way before matching.
	BinWidths map[string]float64
	// Sigma and Model are the covariance matrix and ridge model fit
	// against this payload; nil when fitting is disabled or failed
	// (FitErr carries the reason).
	Sigma  *ml.SigmaMatrix
	Model  *ml.RidgeModel
	FitErr string
}

// Kind returns KindAnalysis.
func (m *AnalysisModel) Kind() Kind { return KindAnalysis }

// Count returns the number of tuples in the maintained join (SUM(1)).
func (m *AnalysisModel) Count() float64 { return m.Payload.CountScalar() }

// Predict evaluates the ridge model on the given feature values
// (attribute name -> value). Continuous features coerce to float;
// categorical features one-hot match against the categories observed at
// publish time (an unseen category contributes zero to every column).
// Entries for the label attribute are ignored; all other feature
// attributes must be present. A continuous or binned input that is not
// finite or exceeds view.MaxNumeric in magnitude is refused — the bound
// the update path enforces — and so is a prediction that overflows.
func (m *AnalysisModel) Predict(x map[string]value.Value) (float64, error) {
	if m.Model == nil {
		if m.FitErr != "" {
			return 0, fmt.Errorf("fivm: no model: %s", m.FitErr)
		}
		return 0, errors.New("fivm: model fitting is disabled (no label configured)")
	}
	vec := make([]float64, m.Sigma.Dim())
	for i, col := range m.Sigma.Cols {
		if col.Attr == m.Label {
			continue
		}
		v, ok := x[col.Attr]
		if !ok {
			return 0, fmt.Errorf("fivm: missing feature %s", col.Attr)
		}
		w := m.BinWidths[col.Attr]
		if (!col.IsCat || w > 0) && !(math.Abs(v.AsFloat()) <= view.MaxNumeric) {
			return 0, fmt.Errorf("fivm: feature %s = %v is not a finite number within ±%g", col.Attr, v, view.MaxNumeric)
		}
		if col.IsCat {
			if w > 0 {
				v = value.Int(ring.Bin(v.AsFloat(), w))
			}
			if v.Equal(col.Category) {
				vec[i] = 1
			}
		} else {
			vec[i] = v.AsFloat()
		}
	}
	p := m.Model.Predict(vec)
	if math.IsNaN(p) || math.IsInf(p, 0) {
		return 0, fmt.Errorf("fivm: prediction %v is not finite", p)
	}
	return p, nil
}

// ResultJSON renders the fitted ridge model (weights by column label).
// It fails when fitting is disabled or failed — the serving layer turns
// that into an HTTP error.
func (m *AnalysisModel) ResultJSON() (any, error) {
	if m.Model == nil {
		if m.FitErr != "" {
			return nil, errors.New(m.FitErr)
		}
		return nil, errors.New("model fitting is disabled (no label configured)")
	}
	type weightJSON struct {
		Column string  `json:"column"`
		Weight float64 `json:"weight"`
	}
	weights := make([]weightJSON, 0, m.Sigma.Dim())
	for i, col := range m.Sigma.Cols {
		if i == m.Model.LabelCol {
			continue
		}
		weights = append(weights, weightJSON{Column: col.Label(), Weight: m.Model.Weights[i]})
	}
	return map[string]any{
		"label":      m.Label,
		"count":      m.Count(),
		"intercept":  m.Model.Intercept,
		"weights":    weights,
		"converged":  m.Model.Converged,
		"iterations": m.Model.Iterations,
		"train_rmse": m.Model.TrainRMSE(m.Sigma),
	}, nil
}

// Covar converts the model payload to its sigma matrix (the one fit at
// publish time when available).
func (m *AnalysisModel) Covar() (*ml.SigmaMatrix, error) {
	if m.Sigma != nil {
		return m.Sigma, nil
	}
	return ml.SigmaFromRelCovar(m.Payload, m.Features)
}

// TableRow is one row of a TableModel: the (decoded) key tuple and the
// scalar the engine maintains for it.
type TableRow struct {
	Key   []any   `json:"key"`
	Value float64 `json:"value"`
}

// TableModel is the Model published by the count and float engines:
// the maintained result as rows of (key, scalar). The keys are the
// GROUP BY attributes (one row with an empty key for ungrouped queries)
// and the values are the maintained aggregates.
//
// Publishing freezes only a shallow clone of the result (the clone's
// payloads are flagged copy-on-write on both sides, so that is a full
// snapshot); sorting and decoding into
// rows happens lazily on the first Rows/Total/ResultJSON call, keeping
// the serving writer's publish cost independent of rendering. The lazy
// step is synchronized: concurrent readers are safe.
type TableModel struct {
	frozenPartial
	EngineKind Kind
	// Attrs names the key attributes, the GROUP BY list.
	Attrs []string

	once  sync.Once
	build func() ([]TableRow, float64)
	rows  []TableRow
	total float64
}

func (m *TableModel) materialize() {
	m.once.Do(func() {
		if m.build != nil {
			m.rows, m.total = m.build()
			m.build = nil
		}
	})
}

// Kind identifies the publishing engine.
func (m *TableModel) Kind() Kind { return m.EngineKind }

// Rows returns the result in deterministic (sorted-key) order.
func (m *TableModel) Rows() []TableRow {
	m.materialize()
	return m.rows
}

// Total returns the sum of all row values: the join cardinality for
// count models, the grand aggregate total for float.
func (m *TableModel) Total() float64 {
	m.materialize()
	return m.total
}

// Count returns Total.
func (m *TableModel) Count() float64 { return m.Total() }

// ResultJSON renders the rows.
func (m *TableModel) ResultJSON() (any, error) {
	m.materialize()
	return map[string]any{
		"attrs": m.Attrs,
		"rows":  m.rows,
		"total": m.total,
	}, nil
}

// Predict always fails: aggregate engines serve no predictive model.
func (m *TableModel) Predict(map[string]value.Value) (float64, error) {
	return 0, fmt.Errorf("fivm: %s engine serves no predictive model", m.EngineKind)
}

// CovarModel is the Model published by the scalar COVAR engine: the
// degree-m compound aggregate (count, sums, products) over the named
// continuous attributes.
type CovarModel struct {
	frozenPartial // over Payload permuted back into lift order
	EngineKind    Kind
	// Attrs maps aggregate index -> attribute name.
	Attrs []string
	// Payload is a copy of the compound aggregate over [0, len(Attrs)),
	// index i being Attrs[i]; nil when the join is empty.
	Payload *ring.RangedCovar
}

// Kind identifies the publishing engine.
func (m *CovarModel) Kind() Kind { return m.EngineKind }

// Count returns the scalar count aggregate (0 on the empty join).
func (m *CovarModel) Count() float64 { return m.Payload.Count() }

// ResultJSON renders count, per-attribute sums, and the upper triangle
// of the product matrix. It fails on the empty join, following the
// package's result-access convention.
func (m *CovarModel) ResultJSON() (any, error) {
	if m.Payload == nil {
		return nil, errors.New("empty join result")
	}
	sums := make(map[string]float64, len(m.Attrs))
	for i, a := range m.Attrs {
		sums[a] = m.Payload.Sum(i)
	}
	type prodJSON struct {
		A string  `json:"a"`
		B string  `json:"b"`
		Q float64 `json:"q"`
	}
	prods := make([]prodJSON, 0, len(m.Attrs)*(len(m.Attrs)+1)/2)
	for i, a := range m.Attrs {
		for j := i; j < len(m.Attrs); j++ {
			prods = append(prods, prodJSON{A: a, B: m.Attrs[j], Q: m.Payload.Prod(i, j)})
		}
	}
	return map[string]any{
		"attrs":    m.Attrs,
		"count":    m.Payload.Count(),
		"sums":     sums,
		"products": prods,
	}, nil
}

// Predict always fails: COVAR engines publish statistics, not a fitted
// predictor (fit one with ml.NewRidge against Sigma).
func (m *CovarModel) Predict(map[string]value.Value) (float64, error) {
	return 0, fmt.Errorf("fivm: %s engine serves no predictive model", m.EngineKind)
}

// frozenPartial is the Model.WritePartial every model embeds: it writes
// the result relation frozen at publish time, in the partial format.
type frozenPartial func(io.Writer) error

// WritePartial writes the frozen result relation.
func (f frozenPartial) WritePartial(w io.Writer) error { return f(w) }

// jsonValue converts a typed value to its natural JSON representation.
func jsonValue(v value.Value) any {
	switch v.Kind() {
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		return v.Float()
	case value.KindString:
		return v.Str()
	default:
		return nil
	}
}

// jsonTuple converts a tuple to a JSON-ready slice.
func jsonTuple(t value.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		out[i] = jsonValue(v)
	}
	return out
}
