package ml

import (
	"fmt"
	"math"
)

// RidgeModel is a ridge linear regression model over the expanded
// feature columns of a SigmaMatrix, with an explicit intercept.
type RidgeModel struct {
	// Intercept is θ0.
	Intercept float64
	// Weights holds one θ per feature column (the label's column weight
	// is unused and kept at zero).
	Weights []float64
	// LabelCol is the column index of the label in the SigmaMatrix.
	LabelCol int
	// Iterations is the number of conjugate-gradient steps the fit took.
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
	// MaxIters caps conjugate-gradient steps per fit. In exact
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

// FitRidge fits the ridge model predicting column labelCol of m from
// the others, minimizing
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
// over the feature columns, whose residual is −∇J. FitRidge solves it
// by conjugate gradient without forming it (with D = diag(σ) and the
// label masked, a step's D⁻¹(Σ/N)D⁻¹v − D⁻¹μ(μᵀD⁻¹v) + λv is one pass
// over Σ's entries), from θ' = 0 in at most one step per column up to
// rounding. Every fit starts there, so the model is a function of m and
// cfg alone.
func FitRidge(m *SigmaMatrix, labelCol int, cfg RidgeConfig) (*RidgeModel, error) {
	n, y := m.Dim(), labelCol
	if m.Count <= 0 {
		return nil, fmt.Errorf("ml: cannot fit on an empty training set")
	}
	if y < 0 || y >= n {
		return nil, fmt.Errorf("ml: label column %d out of range", y)
	}
	r := &RidgeModel{Weights: make([]float64, n), LabelCol: y}
	vs := make([]float64, 7*n)
	mu, sd, u, b := vs[:n], vs[n:2*n], vs[2*n:3*n], vs[3*n:4*n]
	res, p, ap := vs[4*n:5*n], vs[5*n:6*n], vs[6*n:]
	// x, the unknowns θ'_i = θ_i σ_i/σ_y, lives in Weights until the end.
	x := r.Weights
	for i := range mu {
		mu[i] = m.Sum[i] / m.Count
		sd[i] = 1
		if v := m.At(i, i)/m.Count - mu[i]*mu[i]; cfg.Normalize && v > 1e-12 {
			sd[i] = math.Sqrt(v) // constant columns stay unscaled
		}
	}
	// b is the right-hand side. Entry y of b, x, and so of every residual
	// and direction, stays zero.
	for i := range b {
		b[i] = (m.At(i, y)/m.Count - mu[i]*mu[y]) / (sd[i] * sd[y])
	}
	b[y] = 0
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
	// From x = 0 the first residual is b itself.
	var rr float64
	for i := range res {
		res[i] = b[i]
		rr += res[i] * res[i]
	}
	copy(p, res)
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
	// Back to raw space: θ_i = θ'_i σ_y/σ_i, θ0 = μ_y − Σ θ_i μ_i.
	r.Intercept = mu[y]
	for i := range x {
		r.Weights[i] = x[i] * sd[y] / sd[i]
		r.Intercept -= r.Weights[i] * mu[i]
	}
	return r, nil
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
