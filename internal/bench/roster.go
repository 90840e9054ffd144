package bench

import (
	"fmt"
	"math"

	"gbpolar/internal/baselines"
	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/sched"
	"gbpolar/internal/stats"
)

// octRosterRun holds the three octree programs' results for one molecule.
type octRosterRun struct {
	entry  molecule.BenchmarkEntry
	sys    *sysCacheEntry
	cilk   *gb.Result
	mpi    *gb.Result
	hybrid *gb.Result
}

// runOctPrograms executes OCT_CILK (1×12), OCT_MPI (12×1) and
// OCT_MPI+CILK (2×6) on one roster molecule — the paper's single-node
// layouts (§V-C).
func runOctPrograms(e molecule.BenchmarkEntry, params gb.Params) (*octRosterRun, error) {
	mol := molecule.ZDockMolecule(e)
	entry, err := systemFor(mol, params)
	if err != nil {
		return nil, err
	}
	run := &octRosterRun{entry: e, sys: entry}
	pool := sched.New(12)
	run.cilk, err = entry.sys.Run(gb.RunSpec{Pool: pool})
	pool.Close()
	if err != nil {
		return nil, err
	}
	if run.mpi, err = entry.sys.Run(gb.RunSpec{Processes: 12}); err != nil {
		return nil, err
	}
	if run.hybrid, err = entry.sys.Run(gb.RunSpec{Processes: 2, ThreadsPerProcess: 6}); err != nil {
		return nil, err
	}
	return run, nil
}

// fig7 reproduces Figure 7: running time of the three octree programs
// across the ZDock roster on one 12-core node (approximate math on, as in
// the paper's Fig. 7 run).
func fig7(o Options) (*Table, error) {
	params := gb.DefaultParams()
	params.Math = gb.ApproxMath
	t := &Table{
		ID:    "Fig. 7",
		Title: "Running time of the octree programs (1 node × 12 cores), ms",
		Notes: []string{
			"modeled time on the Table I machine; ε_Born = ε_Epol = 0.9, approximate math on",
		},
		Header: []string{"Molecule", "Atoms", "OCT_CILK", "OCT_MPI", "OCT_MPI+CILK"},
	}
	for _, e := range roster(o.MaxAtoms) {
		run, err := runOctPrograms(e, params)
		if err != nil {
			return nil, err
		}
		bc, err := priceOct(o, run.sys.sys, run.cilk)
		if err != nil {
			return nil, err
		}
		bm, err := priceOct(o, run.sys.sys, run.mpi)
		if err != nil {
			return nil, err
		}
		bh, err := priceOct(o, run.sys.sys, run.hybrid)
		if err != nil {
			return nil, err
		}
		t.AddRow(e.Name, fmt.Sprintf("%d", e.Atoms),
			fmtSeconds(bc.TotalSeconds), fmtSeconds(bm.TotalSeconds), fmtSeconds(bh.TotalSeconds))
	}
	return t, nil
}

// rosterProgramTimes computes modeled seconds for every program on one
// molecule (the Fig. 8a row) plus the energies (the Fig. 9 row).
type rosterRow struct {
	entry    molecule.BenchmarkEntry
	times    map[string]float64 // seconds; 0 = did not run (OOM)
	energies map[string]float64 // kcal/mol; NaN = did not run
}

// rosterPrograms is the Fig. 8/9 program order.
var rosterPrograms = []string{
	"OCT_MPI", "OCT_MPI+CILK", "OCT_CILK", "Gromacs", "Tinker", "GBr6", "NAMD", "Naïve", "Amber",
}

func rosterRowFor(o Options, e molecule.BenchmarkEntry) (*rosterRow, error) {
	params := gb.DefaultParams()
	run, err := runOctPrograms(e, params)
	if err != nil {
		return nil, err
	}
	row := &rosterRow{
		entry:    e,
		times:    map[string]float64{},
		energies: map[string]float64{},
	}
	for name, res := range map[string]*gb.Result{
		"OCT_CILK": run.cilk, "OCT_MPI": run.mpi, "OCT_MPI+CILK": run.hybrid,
	} {
		b, err := priceOct(o, run.sys.sys, res)
		if err != nil {
			return nil, err
		}
		row.times[name] = b.TotalSeconds
		row.energies[name] = res.Epol
	}
	naive := run.sys.naiveResult()
	row.times["Naïve"] = priceNaive(o, naive.Ops)
	row.energies["Naïve"] = naive.Energy
	for _, sp := range baselines.Registry() {
		res, err := sp.Run(run.sys.mol, gb.DefaultSolventDielectric)
		if err != nil {
			return nil, err
		}
		if res.OOM {
			row.times[sp.Name] = 0
			row.energies[sp.Name] = math.NaN()
			continue
		}
		row.times[sp.Name] = sp.StartupSeconds + priceBaseline(o, sp, res, sp.Cores)
		row.energies[sp.Name] = res.Energy
	}
	return row, nil
}

// fig8a reproduces Figure 8a: running times of all programs across the
// roster, sorted by molecule size.
func fig8a(o Options) (*Table, error) {
	t := &Table{
		ID:     "Fig. 8a",
		Title:  "Running time for different algorithms (12 cores; GBr6 serial)",
		Notes:  []string{"'-' marks a run that failed (out of memory)"},
		Header: append([]string{"Molecule", "Atoms"}, rosterPrograms...),
	}
	for _, e := range roster(o.MaxAtoms) {
		row, err := rosterRowFor(o, e)
		if err != nil {
			return nil, err
		}
		cells := []string{e.Name, fmt.Sprintf("%d", e.Atoms)}
		for _, prog := range rosterPrograms {
			cells = append(cells, fmtSeconds(row.times[prog]))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// fig8b reproduces Figure 8b: speedups w.r.t. Amber-12 on 12 cores.
func fig8b(o Options) (*Table, error) {
	progs := []string{"OCT_MPI", "OCT_MPI+CILK", "OCT_CILK", "Gromacs", "Tinker", "GBr6", "NAMD"}
	t := &Table{
		ID:     "Fig. 8b",
		Title:  "Speedup w.r.t. Amber-12 (12 cores; 1 core for GBr6)",
		Header: append([]string{"Molecule", "Atoms"}, progs...),
	}
	maxes := map[string]float64{}
	for _, e := range roster(o.MaxAtoms) {
		row, err := rosterRowFor(o, e)
		if err != nil {
			return nil, err
		}
		amber := row.times["Amber"]
		cells := []string{e.Name, fmt.Sprintf("%d", e.Atoms)}
		for _, prog := range progs {
			pt := row.times[prog]
			if pt <= 0 || amber <= 0 {
				cells = append(cells, "-")
				continue
			}
			sp := amber / pt
			if sp > maxes[prog] {
				maxes[prog] = sp
			}
			cells = append(cells, fmt.Sprintf("%.2f", sp))
		}
		t.AddRow(cells...)
	}
	cells := []string{"(max)", ""}
	for _, prog := range progs {
		cells = append(cells, fmt.Sprintf("%.2f", maxes[prog]))
	}
	t.AddRow(cells...)
	return t, nil
}

// fig9 reproduces Figure 9: Epol values computed by the different
// programs.
func fig9(o Options) (*Table, error) {
	progs := []string{"OCT_MPI", "Amber", "Naïve", "Gromacs", "Tinker", "GBr6", "NAMD"}
	t := &Table{
		ID:     "Fig. 9",
		Title:  "Epol (kcal/mol) computed by different algorithms",
		Header: append([]string{"Molecule", "Atoms"}, progs...),
	}
	for _, e := range roster(o.MaxAtoms) {
		row, err := rosterRowFor(o, e)
		if err != nil {
			return nil, err
		}
		cells := []string{e.Name, fmt.Sprintf("%d", e.Atoms)}
		for _, prog := range progs {
			v := row.energies[prog]
			if math.IsNaN(v) {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, fmt.Sprintf("%.0f", v))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// fig10 reproduces Figure 10: % error (avg ± std over the roster) and
// runtime versus the Epol approximation parameter ε ∈ {0.1, …, 0.9} with
// the Born-radii ε fixed at 0.9 (approximate math off).
func fig10(o Options) (*Table, error) {
	t := &Table{
		ID:    "Fig. 10",
		Title: "Error and running time vs Epol ε (OCT_MPI+CILK, Born ε = 0.9)",
		Notes: []string{
			"error is (E_oct − E_naive)/|E_naive| per molecule; avg ± std over the roster",
		},
		Header: []string{"ε", "avg err %", "std err %", "avg−std %", "avg+std %", "avg time", "max time"},
	}
	entries := roster(o.MaxAtoms)
	for _, eps := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		params := gb.DefaultParams()
		params.Accuracy.EpsEpol = eps
		var errs []float64
		var sumT, maxT float64
		for _, e := range entries {
			mol := molecule.ZDockMolecule(e)
			entry, err := systemFor(mol, params)
			if err != nil {
				return nil, err
			}
			res, err := entry.sys.Run(gb.RunSpec{Processes: 2, ThreadsPerProcess: 6})
			if err != nil {
				return nil, err
			}
			// The naive reference is ε-independent: share the cache from
			// the default-params system.
			refEntry, err := systemFor(mol, gb.DefaultParams())
			if err != nil {
				return nil, err
			}
			naive := refEntry.naiveResult()
			errs = append(errs, 100*(res.Epol-naive.Energy)/math.Abs(naive.Energy))
			b, err := priceOct(o, entry.sys, res)
			if err != nil {
				return nil, err
			}
			sumT += b.TotalSeconds
			if b.TotalSeconds > maxT {
				maxT = b.TotalSeconds
			}
		}
		avg, std := stats.MeanStd(errs)
		t.AddRow(fmt.Sprintf("%.1f", eps),
			fmt.Sprintf("%+.3f", avg), fmt.Sprintf("%.3f", std),
			fmt.Sprintf("%+.3f", avg-std), fmt.Sprintf("%+.3f", avg+std),
			fmtSeconds(sumT/float64(len(entries))), fmtSeconds(maxT))
	}
	return t, nil
}
