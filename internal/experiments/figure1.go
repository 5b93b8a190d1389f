package experiments

import (
	"fmt"
	"io"

	"repro/fivm"
	"repro/internal/value"
	"repro/internal/view"
)

// Figure1 prints Figure 1 of the paper (E1): the view tree of the query
// Q = SUM(gB(B) * gC(C) * gD(D)) over R(A,B) ⋈ S(A,C,D) on the toy
// database, Q's payload under four rings — Z counts, the degree-3 COVAR
// ring (continuous B, C, D), the generalized ring with categorical C,
// and the MI count tables (all categorical) — and the figure's δR
// maintenance step, then its deletion.
//
// Each ring is one fivm.Open call: the paper's point (swap the ring,
// keep everything else) is a one-field change in the Config.
func Figure1(w io.Writer) error {
	rels := []fivm.RelationSpec{
		{Name: "R", Attrs: []string{"A", "B"}},
		{Name: "S", Attrs: []string{"A", "C", "D"}},
	}
	data := map[string][]value.Tuple{
		"R": {value.T("a1", 1), value.T("a2", 2)},
		"S": {value.T("a1", 1, 1), value.T("a1", 2, 3), value.T("a2", 2, 2)},
	}
	open := func(ring string, cfg fivm.Config) (fivm.AnyEngine, error) {
		cfg.Relations = rels
		eng, err := fivm.Open(cfg)
		if err == nil {
			err = eng.Init(data)
		}
		if err != nil {
			return nil, fmt.Errorf("figure 1: %s ring: %w", ring, err)
		}
		return eng, nil
	}
	features := func(catB, catC, catD bool) fivm.Config {
		return fivm.Config{Features: []fivm.FeatureSpec{
			{Attr: "B", Categorical: catB}, {Attr: "C", Categorical: catC}, {Attr: "D", Categorical: catD},
		}}
	}

	// The count aggregate over the Z ring: a SQL query compiles to a
	// count engine.
	count, err := open("Z", fivm.Config{Query: "SELECT SUM(1) FROM R NATURAL JOIN S"})
	if err != nil {
		return err
	}
	ce := count.(*fivm.Engine[int64])
	fmt.Fprintln(w, "View tree (variable order) for R(A,B) ⋈ S(A,C,D):")
	fmt.Fprint(w, count.ViewTree())
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Q = SUM(1)                      -> %d tuples in the join\n", ce.Payload())

	// COVAR over continuous B, C, D: the same Config with Attrs instead
	// of a Query.
	covar, err := open("COVAR", fivm.Config{Attrs: []string{"B", "C", "D"}})
	if err != nil {
		return err
	}
	// Its published model reads in Attrs order.
	p := covar.PublishModel(nil).(*fivm.CovarModel).Payload
	fmt.Fprintf(w, "COVAR (cont. B,C,D)             -> count=%v  s=[%v %v %v]\n", p.Count(), p.Sum(0), p.Sum(1), p.Sum(2))
	fmt.Fprintf(w, "                                   Q=[BB=%v BC=%v BD=%v CC=%v CD=%v DD=%v]\n",
		p.Prod(0, 0), p.Prod(0, 1), p.Prod(0, 2), p.Prod(1, 1), p.Prod(1, 2), p.Prod(2, 2))

	// Features instead of Attrs select the analysis engine: categorical
	// C is the generalized ring, all categorical the MI count tables.
	mixed, err := open("generalized COVAR", features(false, true, false))
	if err != nil {
		return err
	}
	mp := mixed.PublishModel(nil).(*fivm.AnalysisModel).Payload
	fmt.Fprintf(w, "COVAR (cat. C; cont. B,D)       -> s_C=%v  Q_BC=%v\n", mp.Sum(1), mp.Prod(0, 1))
	mi, err := open("MI", features(true, true, true))
	if err != nil {
		return err
	}
	ip := mi.PublishModel(nil).(*fivm.AnalysisModel).Payload
	fmt.Fprintf(w, "MI (cat. B,C,D)                 -> C_B=%v  C_CD=%v\n", ip.Sum(0), ip.Prod(1, 2))

	// Incremental maintenance: the figure's δR = {(a1, b1) -> +1}. The
	// lifecycle is identical across engines — one Apply call each.
	fmt.Fprintln(w, "\nApplying δR = insert (a1, b1):")
	dR := []view.Update{{Rel: "R", Tuple: value.T("a1", 1), Mult: 1}}
	for _, eng := range []fivm.AnyEngine{count, covar} {
		if err := eng.Apply(dR); err != nil {
			return fmt.Errorf("figure 1: inserting δR: %w", err)
		}
	}
	fmt.Fprintf(w, "  count   -> %d\n", ce.Payload())
	np := covar.PublishModel(nil).(*fivm.CovarModel).Payload
	fmt.Fprintf(w, "  COVAR   -> count=%v SUM(B)=%v SUM(B*D)=%v\n", np.Count(), np.Sum(0), np.Prod(0, 2))

	fmt.Fprintln(w, "Deleting it again restores the initial state:")
	if err := covar.Apply([]view.Update{{Rel: "R", Tuple: value.T("a1", 1), Mult: -1}}); err != nil {
		return fmt.Errorf("figure 1: deleting δR: %w", err)
	}
	rp := covar.PublishModel(nil).(*fivm.CovarModel).Payload
	fmt.Fprintf(w, "  COVAR   -> count=%v SUM(B)=%v (matches the bulk-loaded state: %v)\n",
		rp.Count(), rp.Sum(0), rp.Equal(p))
	return nil
}
