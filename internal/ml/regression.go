package ml

import (
	"fmt"
	"math"
	"slices"
)

// RidgeModel is a ridge linear regression model over the expanded
// feature columns of a SigmaMatrix, with an explicit intercept.
type RidgeModel struct {
	// Intercept is θ0.
	Intercept float64
	// Weights holds one θ per feature column (the label's column weight
	// is unused and kept at zero).
	Weights []float64
	// Cols names the column each weight belongs to: the columns of the
	// matrix last fit (shared with it, never written; nil before the
	// first Fit), so Remap can carry weights across a change of the
	// one-hot column set.
	Cols []Column
	// LabelCol is the column index of the label in the SigmaMatrix.
	LabelCol int
	// Iterations is the number of conjugate-gradient steps the last Fit
	// took (0 when the warm start already met the tolerance).
	Iterations int
	// Converged reports whether the residual's max-norm dropped below
	// the tolerance before the iteration cap.
	Converged bool
}

// RidgeConfig configures the solver.
type RidgeConfig struct {
	// Lambda is the L2 regularization strength (applied to weights, not
	// the intercept).
	Lambda float64
	// MaxIters caps conjugate-gradient steps per Fit call. In exact
	// arithmetic the method needs at most one step per column, so this
	// is a safety cap, not a tuning knob.
	MaxIters int
	// Tolerance stops iteration when the max-norm of the residual — the
	// gradient of the objective — falls below it.
	Tolerance float64
	// Normalize standardizes feature columns (zero mean, unit variance)
	// inside the solver using only the sigma statistics, then maps the
	// parameters back, so Lambda penalizes every feature on one scale.
	// Constant columns are left unscaled. Without it columns are only
	// centred.
	Normalize bool
}

// DefaultRidgeConfig returns a reasonable solver configuration.
func DefaultRidgeConfig() RidgeConfig {
	return RidgeConfig{Lambda: 1e-3, MaxIters: 5000, Tolerance: 1e-8, Normalize: true}
}

// Clone returns a deep copy of the model, so a warm-started refit can
// run against a copy while the original stays published to readers.
func (r *RidgeModel) Clone() *RidgeModel {
	if r == nil {
		return nil
	}
	cp := *r
	cp.Weights = append([]float64(nil), r.Weights...)
	return &cp
}

// NewRidge returns a zero-initialized model for the given matrix and
// label column.
func NewRidge(m *SigmaMatrix, labelCol int) *RidgeModel {
	return &RidgeModel{Weights: make([]float64, m.Dim()), LabelCol: labelCol}
}

// Remap re-indexes the model onto the columns of m, whose one-hot
// column set may have drifted since the last fit (a category appeared
// or died out): a surviving column, matched by Column.Label, keeps its
// weight and a new one starts at zero, so the next Fit still resumes
// from the previous optimum.
func (r *RidgeModel) Remap(m *SigmaMatrix, labelCol int) {
	r.LabelCol = labelCol
	if slices.Equal(r.Cols, m.Cols) {
		return
	}
	old := make(map[string]float64, len(r.Cols))
	for i, c := range r.Cols {
		old[c.Label()] = r.Weights[i]
	}
	r.Weights = make([]float64, m.Dim())
	for i, c := range m.Cols {
		r.Weights[i] = old[c.Label()]
	}
	r.Cols = m.Cols
}

// Fit minimizes the least-squares objective
//
//	J(θ) = 1/(2N) Σ (θ0 + θᵀx − y)² + λ/2 ‖θ‖²
//
// using only the COVAR statistics in m — the training data itself is
// never materialized, which is the paper's central point: the count,
// the column sums s and the matrix Σ of SUM(x_i·x_j) determine the
// centred (with Normalize: standardized) second moments
//
//	Σ'_ij = (Σ_ij − N μ_i μ_j) / (σ_i σ_j),   s'_i = 0
//
// and with zero sums the intercept drops out analytically, leaving the
// symmetric positive-definite system
//
//	(Σ'/N + λI) θ' = Σ'_y/N
//
// over the feature columns, whose residual is −∇J. Fit solves it by
// conjugate gradient without forming it (with D = diag(σ) and the label
// masked, a step's D⁻¹(Σ/N)D⁻¹v − D⁻¹μ(μᵀD⁻¹v) + λv is one pass over Σ's
// entries), resuming from the model's current parameters: after a delta
// batch it re-converges from the previous optimum (warm start) in a
// handful of steps, like the demo's Regression tab, and from any start
// in at most one step per column up to rounding.
func (r *RidgeModel) Fit(m *SigmaMatrix, cfg RidgeConfig) error {
	n, y := m.Dim(), r.LabelCol
	if m.Count <= 0 {
		return fmt.Errorf("ml: cannot fit on an empty training set")
	}
	if len(r.Weights) != n {
		return fmt.Errorf("ml: model has %d weights, matrix has %d columns", len(r.Weights), n)
	}
	if y < 0 || y >= n {
		return fmt.Errorf("ml: label column %d out of range", y)
	}
	vs := make([]float64, 8*n)
	mu, sd, u, b := vs[:n], vs[n:2*n], vs[2*n:3*n], vs[3*n:4*n]
	x, res, p, ap := vs[4*n:5*n], vs[5*n:6*n], vs[6*n:7*n], vs[7*n:]
	for i := range mu {
		mu[i] = m.Sum[i] / m.Count
		sd[i] = 1
		if v := m.At(i, i)/m.Count - mu[i]*mu[i]; cfg.Normalize && v > 1e-12 {
			sd[i] = math.Sqrt(v) // constant columns stay unscaled
		}
	}
	// b is the right-hand side, x the unknowns θ'_i = θ_i σ_i/σ_y. Entry
	// y of b, x, and so of every residual and direction, stays zero.
	for i := range b {
		b[i] = (m.At(i, y)/m.Count - mu[i]*mu[y]) / (sd[i] * sd[y])
		x[i] = r.Weights[i] * sd[i] / sd[y]
	}
	b[y], x[y] = 0, 0
	mulA := func(dst, v []float64) {
		var dot float64
		for i := range u {
			u[i] = v[i] / sd[i]
			dot += mu[i] * u[i]
		}
		for i := range dst {
			cols, vals := m.row(i)
			var s float64
			for k, j := range cols {
				s += vals[k] * u[j]
			}
			dst[i] = (s/m.Count-mu[i]*dot)/sd[i] + cfg.Lambda*v[i]
		}
		dst[y] = 0
	}
	mulA(ap, x)
	var rr float64
	for i := range res {
		res[i] = b[i] - ap[i]
		rr += res[i] * res[i]
	}
	copy(p, res)
	r.Converged, r.Iterations = false, 0
	for {
		var maxAbs float64
		for _, v := range res {
			maxAbs = math.Max(maxAbs, math.Abs(v))
		}
		if r.Converged = maxAbs < cfg.Tolerance; r.Converged || r.Iterations >= cfg.MaxIters {
			break
		}
		mulA(ap, p)
		var pap float64
		for i := range p {
			pap += p[i] * ap[i]
		}
		if pap <= 0 {
			break // residual exhausted (or λ = 0 on a singular system): no direction left
		}
		r.Iterations++
		alpha, prev := rr/pap, rr
		rr = 0
		for i := range x {
			x[i] += alpha * p[i]
			res[i] -= alpha * ap[i]
			rr += res[i] * res[i]
		}
		for i := range p {
			p[i] = res[i] + rr/prev*p[i]
		}
	}
	// Back to raw space: θ_i = θ'_i σ_y/σ_i, θ0 = μ_y − Σ θ_i μ_i. A
	// start that took no step keeps its weights bit for bit, so the refit
	// of an unchanged Σ answers the model it resumed from.
	r.Intercept = mu[y]
	for i := range x {
		if r.Iterations > 0 {
			r.Weights[i] = x[i] * sd[y] / sd[i]
		}
		r.Intercept -= r.Weights[i] * mu[i]
	}
	r.Cols = m.Cols
	return nil
}

// Predict evaluates the model on an expanded feature vector x (the
// label column's entry is ignored).
func (r *RidgeModel) Predict(x []float64) float64 {
	out := r.Intercept
	for i, w := range r.Weights {
		if i != r.LabelCol {
			out += w * x[i]
		}
	}
	return out
}

// TrainRMSE computes the root-mean-squared training error from the
// sigma statistics alone, in one pass over Σ's stored entries:
//
//	MSE = 1/N (θᵀΣθ + 2θ0 θᵀs + Nθ0² − 2θᵀΣ_y − 2θ0 s_y + Σ_yy)
func (r *RidgeModel) TrainRMSE(m *SigmaMatrix) float64 {
	y := r.LabelCol
	var quad, lin float64
	for i := 0; i < m.Dim(); i++ {
		if i == y {
			continue
		}
		wi, siy := r.Weights[i], 0.0
		cols, vals := m.row(i)
		for k, j := range cols {
			if int(j) == y {
				siy = vals[k]
			} else {
				quad += wi * r.Weights[j] * vals[k]
			}
		}
		lin += wi * (r.Intercept*m.Sum[i] - siy)
	}
	mse := (quad + 2*lin + m.Count*r.Intercept*r.Intercept - 2*r.Intercept*m.Sum[y] + m.At(y, y)) / m.Count
	return math.Sqrt(max(mse, 0)) // numeric noise near a perfect fit can go below 0
}
