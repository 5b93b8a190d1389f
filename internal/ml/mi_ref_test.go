package ml

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/ring"
	"repro/internal/value"
)

// This file is the reference MIFromSigma is held to: mutual
// information read off the payload through the relational ring, which
// builds a map[string]float64 per feature (RelCovar.Sum) and per pair
// (RelCovar.Prod) and sums each in sorted key order.

// MutualInformation computes I(X, Y) from the maintained count
// aggregates: cTotal = SUM(1), cx = SUM(1) GROUP BY X, cy = SUM(1)
// GROUP BY Y, and cxy = SUM(1) GROUP BY (X, Y) with X-part-first keys —
// exactly the components the RelCovar payload holds for a categorical
// pair. The result uses natural logarithms (nats). Terms are summed in
// sorted key order, so the value is a function of the counts alone, not
// of map iteration order: equal inputs give bit-equal results, which
// ChowLiu's tie-breaks rely on.
func MutualInformation(cTotal float64, cx, cy, cxy ring.RelVal) float64 {
	if cTotal <= 0 {
		return 0
	}
	mi := 0.0
	for _, kxy := range sortedKeys(cxy) {
		nxy := cxy[kxy]
		if nxy <= 0 {
			continue
		}
		t := value.MustDecodeTuple(kxy)
		if len(t) != 2 {
			continue // malformed; skip rather than poison the sum
		}
		kx := value.Tuple{t[0]}.Encode()
		ky := value.Tuple{t[1]}.Encode()
		nx, ny := cx[kx], cy[ky]
		if nx <= 0 || ny <= 0 {
			continue
		}
		mi += nxy / cTotal * math.Log(cTotal*nxy/(nx*ny))
	}
	if mi < 0 {
		mi = 0 // clamp numeric noise; MI is non-negative
	}
	return mi
}

// SelfInformation computes the entropy H(X) = I(X, X) from the marginal
// counts, used for the MI matrix diagonal; summed in sorted key order
// like MutualInformation.
func SelfInformation(cTotal float64, cx ring.RelVal) float64 {
	if cTotal <= 0 {
		return 0
	}
	h := 0.0
	for _, k := range sortedKeys(cx) {
		n := cx[k]
		if n <= 0 {
			continue
		}
		p := n / cTotal
		h -= p * math.Log(p)
	}
	if h < 0 {
		h = 0
	}
	return h
}

func sortedKeys(v ring.RelVal) []string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// refMI is MI before it was read off Σ: it builds the
// pairwise MI matrix from a generalized COVAR payload whose features are
// all categorical (continuous attributes must have been lifted with
// binned/categorical lifts). feats addresses the payload components.
func refMI(c *ring.RelCovar, feats []Feature) (*MIMatrix, error) {
	if c == nil {
		return nil, fmt.Errorf("ml: nil payload (empty join result)")
	}
	for _, f := range feats {
		if !f.Categorical {
			return nil, fmt.Errorf("ml: MI needs categorical (or binned) lifts, feature %s is continuous", f.Name)
		}
	}
	n := len(feats)
	m := &MIMatrix{n: n, Attrs: make([]string, n), Data: make([]float64, n*n)}
	total := c.Count().Scalar()
	for i, f := range feats {
		m.Attrs[i] = f.Name
		m.Data[i*n+i] = SelfInformation(total, c.Sum(f.Index))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			fi, fj := feats[i], feats[j]
			// Prod(i,j) keys are (lower-ring-index part first); orient so
			// X is the first component.
			var cxy ring.RelVal
			var cx, cy ring.RelVal
			if fi.Index <= fj.Index {
				cxy = c.Prod(fi.Index, fj.Index)
				cx, cy = c.Sum(fi.Index), c.Sum(fj.Index)
			} else {
				cxy = c.Prod(fj.Index, fi.Index)
				cx, cy = c.Sum(fj.Index), c.Sum(fi.Index)
			}
			mi := MutualInformation(total, cx, cy, cxy)
			m.Data[i*n+j] = mi
			m.Data[j*n+i] = mi
		}
	}
	return m, nil
}

// checkMI computes MIFromSigma over sigma, a Σ of payload built over
// feats, and the reference over payload and feats, and holds every
// entry to the reference within 1e-12 × max(floor, |ref|): floor 1
// bounds the error absolutely near zero, floor 0 makes it relative
// throughout. It returns both matrices.
func checkMI(t testing.TB, sigma *SigmaMatrix, payload *ring.RelCovar, feats []Feature, floor float64) (got, ref *MIMatrix) {
	t.Helper()
	got, err := MIFromSigma(sigma, feats)
	if err != nil {
		t.Fatal(err)
	}
	if ref, err = refMI(payload, feats); err != nil {
		t.Fatalf("reference: %v", err)
	}
	if !slices.Equal(got.Attrs, ref.Attrs) {
		t.Fatalf("attributes %v, reference %v", got.Attrs, ref.Attrs)
	}
	for i := range ref.Data {
		if d := math.Abs(got.Data[i] - ref.Data[i]); d > 1e-12*math.Max(floor, math.Abs(ref.Data[i])) {
			n := ref.Dim()
			t.Fatalf("I(%s, %s) = %v, reference %v", ref.Attrs[i/n], ref.Attrs[i%n], got.Data[i], ref.Data[i])
		}
	}
	return got, ref
}
