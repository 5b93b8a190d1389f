package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/fivm"
	"repro/internal/ml"
)

// AppResult captures one application-tab experiment: per-bulk
// maintenance time plus the application artifact refresh time.
type AppResult struct {
	Bulk        int
	Updates     int
	MaintainDur time.Duration
	AppDur      time.Duration
	Artifact    string
}

// retailerAnalysis builds the Analysis engine used by E3–E5: the demo's
// feature set over the synthetic Retailer join, with continuous
// attributes binned when forMI is set.
func retailerAnalysis(s retailerSetup, forMI bool) (*fivm.Analysis, error) {
	cont := func(attr string, width float64) fivm.FeatureSpec {
		if forMI {
			return fivm.FeatureSpec{Attr: attr, BinWidth: width}
		}
		return fivm.FeatureSpec{Attr: attr}
	}
	features := []fivm.FeatureSpec{
		cont("inventoryunits", 50),
		{Attr: "ksn", Categorical: true},
		cont("prize", 10),
		{Attr: "subcategory", Categorical: true},
		{Attr: "category", Categorical: true},
		{Attr: "categoryCluster", Categorical: true},
		{Attr: "zip", Categorical: true},
		cont("avghhi", 20_000),
		cont("maxtemp", 5),
		{Attr: "rain", Categorical: true},
	}
	eng, err := openLoaded(fivm.Config{Features: features}, s.fspecs, s.db.TupleMap())
	if err != nil {
		return nil, err
	}
	return eng.(*fivm.Analysis), nil
}

// E3ModelSelection reproduces Figure 2a: per bulk, maintain the MI count
// tables and re-rank attributes against the label.
func E3ModelSelection(sc Scale, threshold float64) ([]AppResult, error) {
	s := newRetailerSetup(sc, 1)
	an, err := retailerAnalysis(s, true)
	if err != nil {
		return nil, err
	}
	ups := s.stream(sc.StreamLen, 0.3, 31)
	var out []AppResult
	for i := 0; i < len(ups); i += sc.BatchSize {
		j := min(i+sc.BatchSize, len(ups))
		t0 := time.Now()
		if err := an.Apply(ups[i:j]); err != nil {
			return nil, err
		}
		maintain := time.Since(t0)
		t1 := time.Now()
		_, selected, err := an.SelectFeatures("inventoryunits", threshold)
		if err != nil {
			return nil, err
		}
		out = append(out, AppResult{
			Bulk: len(out) + 1, Updates: j - i,
			MaintainDur: maintain, AppDur: time.Since(t1),
			Artifact: fmt.Sprintf("selected=%v", selected),
		})
	}
	return out, nil
}

// E4Regression reproduces Figure 2b: per bulk, maintain the COVAR matrix
// and re-converge the warm-started ridge model.
func E4Regression(sc Scale) ([]AppResult, error) {
	s := newRetailerSetup(sc, 1)
	an, err := retailerAnalysis(s, false)
	if err != nil {
		return nil, err
	}
	cfg := ml.DefaultRidgeConfig()
	var model *ml.RidgeModel
	ups := s.stream(sc.StreamLen, 0.2, 41)
	var out []AppResult
	for i := 0; i < len(ups); i += sc.BatchSize {
		j := min(i+sc.BatchSize, len(ups))
		t0 := time.Now()
		if err := an.Apply(ups[i:j]); err != nil {
			return nil, err
		}
		maintain := time.Since(t0)
		t1 := time.Now()
		var sigma *ml.SigmaMatrix
		model, sigma, err = an.Ridge("inventoryunits", model, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, AppResult{
			Bulk: len(out) + 1, Updates: j - i,
			MaintainDur: maintain, AppDur: time.Since(t1),
			Artifact: fmt.Sprintf("iters=%d rmse=%.2f dim=%d", model.Iterations, model.TrainRMSE(sigma), sigma.Dim()),
		})
	}
	return out, nil
}

// E5ChowLiu reproduces Figure 2c: per bulk, maintain the MI tables and
// rebuild the Chow-Liu tree rooted at ksn.
func E5ChowLiu(sc Scale) ([]AppResult, error) {
	s := newRetailerSetup(sc, 1)
	an, err := retailerAnalysis(s, true)
	if err != nil {
		return nil, err
	}
	ups := s.stream(sc.StreamLen, 0.25, 51)
	var out []AppResult
	for i := 0; i < len(ups); i += sc.BatchSize {
		j := min(i+sc.BatchSize, len(ups))
		t0 := time.Now()
		if err := an.Apply(ups[i:j]); err != nil {
			return nil, err
		}
		maintain := time.Since(t0)
		t1 := time.Now()
		tree, err := an.ChowLiu("ksn")
		if err != nil {
			return nil, err
		}
		first := ""
		if len(tree.Edges) > 0 {
			first = tree.Edges[0].Parent + "->" + tree.Edges[0].Child
		}
		out = append(out, AppResult{
			Bulk: len(out) + 1, Updates: j - i,
			MaintainDur: maintain, AppDur: time.Since(t1),
			Artifact: fmt.Sprintf("totalMI=%.3f edges=%d first=%s", tree.TotalMI, len(tree.Edges), first),
		})
	}
	return out, nil
}

// E6Maintenance reproduces Figure 2d: the view tree and M3 code for the
// Retailer query.
func E6Maintenance(sc Scale) (string, error) {
	s := newRetailerSetup(sc, 1)
	an, err := retailerAnalysis(s, false)
	if err != nil {
		return "", err
	}
	return an.M3(), nil
}

// PrintAppResults renders application rows as the harness table.
func PrintAppResults(w io.Writer, rows []AppResult) {
	fmt.Fprintf(w, "%4s %8s %10s %10s  %s\n", "bulk", "updates", "maintain", "app", "artifact")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %8d %10s %10s  %s\n",
			r.Bulk, r.Updates, r.MaintainDur.Round(time.Millisecond),
			r.AppDur.Round(time.Millisecond), r.Artifact)
	}
}
