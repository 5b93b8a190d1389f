package ml

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ring"
	"repro/internal/value"
)

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

// MIMatrix is the symmetric matrix of pairwise mutual information over a
// set of attributes (diagonal = entropies).
type MIMatrix struct {
	Attrs []string
	Data  []float64
	n     int
}

// Dim returns the number of attributes.
func (m *MIMatrix) Dim() int { return m.n }

// At returns I(attr_i, attr_j).
func (m *MIMatrix) At(i, j int) float64 { return m.Data[i*m.n+j] }

// IndexOf returns the position of attr, or -1.
func (m *MIMatrix) IndexOf(attr string) int {
	for i, a := range m.Attrs {
		if a == attr {
			return i
		}
	}
	return -1
}

// MIFromRelCovar builds the pairwise MI matrix from a generalized COVAR
// payload whose features are all categorical (continuous attributes
// must have been lifted with binned/categorical lifts). feats addresses
// the payload components.
func MIFromRelCovar(c *ring.RelCovar, feats []Feature) (*MIMatrix, error) {
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

// RankedAttr is one attribute with its MI score against the label.
type RankedAttr struct {
	Attr string
	MI   float64
}

// SelectFeatures ranks every non-label attribute by its MI with the
// label (descending, ties by name) and returns the ranking plus the
// subset meeting the threshold — the demo's Model Selection tab.
func SelectFeatures(m *MIMatrix, label string, threshold float64) (ranking []RankedAttr, selected []string, err error) {
	li := m.IndexOf(label)
	if li < 0 {
		return nil, nil, fmt.Errorf("ml: label %s not in MI matrix", label)
	}
	for i, a := range m.Attrs {
		if i == li {
			continue
		}
		ranking = append(ranking, RankedAttr{Attr: a, MI: m.At(li, i)})
	}
	sort.Slice(ranking, func(i, j int) bool {
		if ranking[i].MI != ranking[j].MI {
			return ranking[i].MI > ranking[j].MI
		}
		return ranking[i].Attr < ranking[j].Attr
	})
	for _, r := range ranking {
		if r.MI >= threshold {
			selected = append(selected, r.Attr)
		}
	}
	return ranking, selected, nil
}
