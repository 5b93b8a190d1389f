package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/fivm"
	"repro/internal/daemon"
	"repro/internal/dataset"
	"repro/internal/ml"
)

// TabsConfig is one run of the demo's application tabs (Figure 2) over
// a preset database.
type TabsConfig struct {
	Preset daemon.Preset
	// DB is the preset's database, generated or loaded from its CSVs.
	DB        *dataset.Database
	Label     string
	Threshold float64
	Root      string
	// Updates are streamed into Preset.Fact in bulks of BulkSize.
	Updates, BulkSize int
}

// TabBulk is the application tabs after one bulk: every tab is derived
// from the one MI matrix and the one COVAR payload maintained so far.
type TabBulk struct {
	// Bulk 0 is the initial evaluation of the database; Updates is then
	// its tuple count, and Maintain the evaluation time.
	Bulk, Updates int
	// Maintain is the time both engines took to apply the bulk; App is
	// the time to recompute every tab below from their payloads.
	Maintain, App time.Duration
	// Ranking and Selected are the Model Selection tab.
	Ranking  []ml.RankedAttr
	Selected []string
	// Tree is the Chow-Liu Tree tab.
	Tree *ml.ChowLiuTree
	// Model and Sigma are the Regression tab: ridge, warm-started from
	// the previous bulk's fit. RidgeErr is set instead when the label
	// cannot be regressed on the preset's features (it is categorical or
	// not one of them).
	Model    *ml.RidgeModel
	Sigma    *ml.SigmaMatrix
	RidgeErr error
}

// openTabEngines opens the preset's MI and COVAR engines over db and
// evaluates both on it. The COVAR engine has no label: the tabs fit
// ridge themselves, for whichever label they are asked.
func openTabEngines(p daemon.Preset, db *dataset.Database) (mi, cov *fivm.Analysis, err error) {
	var rels []fivm.RelationSpec
	for _, r := range db.Relations {
		rels = append(rels, fivm.RelationSpec{Name: r.Name, Attrs: r.Attrs})
	}
	data := db.TupleMap()
	var engs [2]*fivm.Analysis
	for i, features := range [][]fivm.FeatureSpec{p.MIFeatures, p.Features} {
		eng, err := openLoaded(fivm.Config{Features: features}, rels, data)
		if err != nil {
			return nil, nil, err
		}
		engs[i] = eng.(*fivm.Analysis)
	}
	return engs[0], engs[1], nil
}

// tabStream is the update stream every tab run applies: total updates
// into the preset's fact relation, a quarter of them deletes.
func tabStream(p daemon.Preset, db *dataset.Database, total int) (*dataset.Stream, error) {
	return dataset.NewStream(db, dataset.StreamConfig{Relation: p.Fact, Total: total, DeleteRatio: 0.25, Seed: 5})
}

// RunTabs computes the application tabs of c: it evaluates the preset's
// MI and COVAR engines over c.DB, then applies every bulk of the stream
// to both, and after the evaluation and after each bulk derives the
// feature ranking and the Chow-Liu tree from one MI matrix and refits
// ridge on the COVAR payload. It also returns the MI engine's view tree
// and M3 code, the Maintenance Strategy tab.
func RunTabs(c TabsConfig) (m3 string, out []TabBulk, err error) {
	stream, err := tabStream(c.Preset, c.DB, c.Updates)
	if err != nil {
		return "", nil, err
	}
	t0 := time.Now()
	miEng, covEng, err := openTabEngines(c.Preset, c.DB)
	if err != nil {
		return "", nil, err
	}
	initial := time.Since(t0)
	var model *ml.RidgeModel
	ridgeCfg := ml.DefaultRidgeConfig()
	refresh := func(updates int, maintain time.Duration) error {
		t0 := time.Now()
		mi, err := miEng.MI()
		if err != nil {
			return err
		}
		b := TabBulk{Bulk: len(out), Updates: updates, Maintain: maintain}
		if b.Ranking, b.Selected, err = ml.SelectFeatures(mi, c.Label, c.Threshold); err != nil {
			return err
		}
		if b.Tree, err = ml.ChowLiu(mi, c.Root); err != nil {
			return err
		}
		// Ridge refits its warm start in place; each bulk keeps its own.
		if m, sigma, err := covEng.Ridge(c.Label, model.Clone(), ridgeCfg); err != nil {
			b.RidgeErr = err
		} else {
			model, b.Model, b.Sigma = m, m, sigma
		}
		b.App = time.Since(t0)
		out = append(out, b)
		return nil
	}
	tuples := 0
	for _, r := range c.DB.Relations {
		tuples += len(r.Tuples)
	}
	if err := refresh(tuples, initial); err != nil {
		return "", nil, err
	}
	for _, bulk := range stream.Bulks(c.BulkSize) {
		t0 := time.Now()
		if err := miEng.Apply(bulk); err != nil {
			return "", nil, err
		}
		if err := covEng.Apply(bulk); err != nil {
			return "", nil, err
		}
		if err := refresh(len(bulk), time.Since(t0)); err != nil {
			return "", nil, err
		}
	}
	return miEng.M3(), out, nil
}

// PresetTabs is RunTabs on the named preset at scale sc with its default
// label and root: sc.InventoryRows fact rows, and sc.StreamLen updates
// in bulks of sc.BatchSize. E3–E6 print the Retailer run, E8 the
// Favorita one.
func PresetTabs(db string, sc Scale, threshold float64) (string, []TabBulk, error) {
	p, ok := daemon.Presets[db]
	if !ok {
		return "", nil, fmt.Errorf("unknown preset %q", db)
	}
	return RunTabs(TabsConfig{
		Preset: p, DB: p.Generate(sc.InventoryRows),
		Label: p.Label, Threshold: threshold, Root: p.Root,
		Updates: sc.StreamLen, BulkSize: sc.BatchSize,
	})
}

// SelectionColumn is E3's column: the selected features.
func SelectionColumn(b TabBulk) string { return fmt.Sprintf("selected=%v", b.Selected) }

// RegressionColumn is E4's column: the ridge refit.
func RegressionColumn(b TabBulk) string {
	if b.RidgeErr != nil {
		return "ridge: " + b.RidgeErr.Error()
	}
	return fmt.Sprintf("iters=%d rmse=%.2f dim=%d", b.Model.Iterations, b.Model.TrainRMSE(b.Sigma), b.Sigma.Dim())
}

// ChowLiuColumn is E5's column: the tree's objective and first edge.
func ChowLiuColumn(b TabBulk) string {
	first := ""
	if len(b.Tree.Edges) > 0 {
		first = b.Tree.Edges[0].Parent + "->" + b.Tree.Edges[0].Child
	}
	return fmt.Sprintf("totalMI=%.3f edges=%d first=%s", b.Tree.TotalMI, len(b.Tree.Edges), first)
}

// AllColumns is E8's column: the three tabs side by side.
func AllColumns(b TabBulk) string {
	return SelectionColumn(b) + " " + RegressionColumn(b) + " " + ChowLiuColumn(b)
}

// PrintTabs renders one column of a tab run as the harness table.
func PrintTabs(w io.Writer, rows []TabBulk, column func(TabBulk) string) {
	fmt.Fprintf(w, "%4s %8s %10s %10s  %s\n", "bulk", "updates", "maintain", "app", "artifact")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %8d %10s %10s  %s\n", r.Bulk, r.Updates,
			r.Maintain.Round(time.Millisecond), r.App.Round(time.Millisecond), column(r))
	}
}

// E8Throughput measures the Favorita preset's two maintained payloads,
// each on a fresh engine and on the stream the tabs apply.
func E8Throughput(sc Scale) ([]Throughput, error) {
	p := daemon.Presets["favorita"]
	db := p.Generate(sc.InventoryRows)
	st, err := tabStream(p, db, sc.StreamLen)
	if err != nil {
		return nil, err
	}
	miEng, covEng, err := openTabEngines(p, db)
	if err != nil {
		return nil, err
	}
	mi, err := measure("Favorita MI payload (6-way join)", st.Updates, sc.BatchSize, miEng.Apply)
	if err != nil {
		return nil, err
	}
	cov, err := measure("Favorita COVAR payload (6-way join)", st.Updates, sc.BatchSize, covEng.Apply)
	if err != nil {
		return nil, err
	}
	mi.Note = fmt.Sprintf("%d attributes in the MI matrix", len(p.MIFeatures))
	sigma, err := covEng.Covar()
	if err != nil {
		return nil, err
	}
	cov.Note = fmt.Sprintf("%d one-hot columns", sigma.Dim())
	return []Throughput{mi, cov}, nil
}
