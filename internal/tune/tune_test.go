package tune

import (
	"math"
	"os"
	"testing"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
)

// rosterSubset picks the roster molecules the property test sweeps: a
// small/medium/large slice by default, the whole ZDock roster when
// GBTUNE_ROSTER=full (the acceptance sweep — minutes, not seconds).
func rosterSubset(t *testing.T) []molecule.BenchmarkEntry {
	roster := molecule.ZDockRoster()
	if os.Getenv("GBTUNE_ROSTER") == "full" {
		return roster
	}
	if testing.Short() {
		return []molecule.BenchmarkEntry{roster[0]}
	}
	return []molecule.BenchmarkEntry{roster[0], roster[6], roster[12]}
}

// TestSelectMeetsTargetAcrossRoster is the tuner property test: on every
// roster molecule swept, the selected point's measured error meets the
// target, and an INDEPENDENT re-run of the returned system confirms the
// measurement (the selection is not allowed to grade its own homework).
// mustRun runs the spec on s and fails the test on error.
func mustRun(t testing.TB, s *gb.System, spec gb.RunSpec) *gb.Result {
	t.Helper()
	res, err := s.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSelectMeetsTargetAcrossRoster(t *testing.T) {
	for _, e := range rosterSubset(t) {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			mol := molecule.ZDockMolecule(e)
			const target = 1.0 // kcal/mol
			sel, err := Select(mol, target, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sel.Point.Verified {
				t.Error("selected point is not verified")
			}
			if sel.Point.MeasuredError > target {
				t.Errorf("measured error %v exceeds target %v", sel.Point.MeasuredError, target)
			}
			if sel.Point.Acc.TargetError != target {
				t.Errorf("selected Acc.TargetError = %v, want %v", sel.Point.Acc.TargetError, target)
			}
			if sel.System == nil || sel.Surface == nil {
				t.Fatal("selection carries no ready system/surface")
			}
			// Independent check: run the returned system and measure
			// against the reference ourselves.
			res := mustRun(t, sel.System, gb.RunSpec{})
			if got := math.Abs(res.Epol - sel.ReferenceEpol); got > target {
				t.Errorf("re-run error %v exceeds target %v (reference %v, re-run %v)",
					got, target, sel.ReferenceEpol, res.Epol)
			}
			if math.Float64bits(res.Epol) != math.Float64bits(sel.Point.Epol) {
				t.Errorf("re-run Epol %v differs from the verification run's %v", res.Epol, sel.Point.Epol)
			}
		})
	}
}

// TestSelectTightTargetStaysAdmissible pins the tight end: a target of
// 0.05 kcal/mol — below every coarse candidate's bound — still returns
// an admissible point (a tight candidate or the reference fallback).
func TestSelectTightTargetStaysAdmissible(t *testing.T) {
	mol := molecule.ZDockMolecule(molecule.ZDockRoster()[0])
	const target = 0.05
	sel, err := Select(mol, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Point.Verified || sel.Point.MeasuredError > target {
		t.Errorf("tight target: verified=%v measured=%v target=%v",
			sel.Point.Verified, sel.Point.MeasuredError, target)
	}
	res := mustRun(t, sel.System, gb.RunSpec{})
	if got := math.Abs(res.Epol - sel.ReferenceEpol); got > target {
		t.Errorf("re-run error %v exceeds tight target %v", got, target)
	}
}

// TestSelectDeterministic pins Select's determinism contract: two
// searches over the same (molecule, target, options) produce the same
// point, bit for bit, and the same ladder.
func TestSelectDeterministic(t *testing.T) {
	mol := molecule.ZDockMolecule(molecule.ZDockRoster()[0])
	a, err := Select(mol, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Select(mol, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Point.Acc != b.Point.Acc {
		t.Errorf("selected points differ: %+v vs %+v", a.Point.Acc, b.Point.Acc)
	}
	if math.Float64bits(a.Point.Epol) != math.Float64bits(b.Point.Epol) {
		t.Errorf("selected Epol not bitwise reproducible: %x vs %x",
			math.Float64bits(a.Point.Epol), math.Float64bits(b.Point.Epol))
	}
	if math.Float64bits(a.ReferenceEpol) != math.Float64bits(b.ReferenceEpol) {
		t.Errorf("reference Epol not bitwise reproducible")
	}
	if a.VerifyRuns != b.VerifyRuns {
		t.Errorf("verify runs differ: %d vs %d", a.VerifyRuns, b.VerifyRuns)
	}
	if len(a.Ladder) != len(b.Ladder) {
		t.Fatalf("ladder lengths differ: %d vs %d", len(a.Ladder), len(b.Ladder))
	}
	for i := range a.Ladder {
		if a.Ladder[i].Acc != b.Ladder[i].Acc {
			t.Errorf("ladder step %d differs: %+v vs %+v", i, a.Ladder[i].Acc, b.Ladder[i].Acc)
		}
	}
}

// TestSelectLadderIsAdmissibleFrontier pins the shed schedule's shape:
// every step shares the selected quadrature order (the surface cannot be
// rebuilt mid-supervision), predicted error strictly increases down the
// ladder, and the cap holds.
func TestSelectLadderIsAdmissibleFrontier(t *testing.T) {
	mol := molecule.ZDockMolecule(molecule.ZDockRoster()[0])
	sel, err := Select(mol, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Ladder) > 4 {
		t.Errorf("ladder has %d steps, cap is 4", len(sel.Ladder))
	}
	last := sel.Point.PredictedRelError
	for i, step := range sel.Ladder {
		if step.Acc.QuadOrder != sel.Point.Acc.QuadOrder {
			t.Errorf("ladder step %d changes quadrature order %d -> %d",
				i, sel.Point.Acc.QuadOrder, step.Acc.QuadOrder)
		}
		if step.PredictedRelError <= last {
			t.Errorf("ladder step %d predicted error %v does not increase past %v",
				i, step.PredictedRelError, last)
		}
		last = step.PredictedRelError
	}
}

// TestSelectEmitsSummaryCounters checks the obs contract: the chosen
// point lands in the recorder as deterministic integer counters.
func TestSelectEmitsSummaryCounters(t *testing.T) {
	mol := molecule.ZDockMolecule(molecule.ZDockRoster()[0])
	rec := obs.NewRecorder(nil)
	sel, err := Select(mol, 1.0, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	c := rec.Counters()
	if c["tune.candidates"] != int64(len(sel.Candidates)) {
		t.Errorf("tune.candidates = %d, want %d", c["tune.candidates"], len(sel.Candidates))
	}
	if c["tune.verify_runs"] != int64(sel.VerifyRuns) {
		t.Errorf("tune.verify_runs = %d, want %d", c["tune.verify_runs"], sel.VerifyRuns)
	}
	if c["tune.selected.order"] != int64(sel.Point.Acc.Order) {
		t.Errorf("tune.selected.order = %d, want %d", c["tune.selected.order"], sel.Point.Acc.Order)
	}
	if c["tune.selected.quad_order"] != int64(sel.Point.Acc.QuadOrder) {
		t.Errorf("tune.selected.quad_order = %d, want %d",
			c["tune.selected.quad_order"], sel.Point.Acc.QuadOrder)
	}
	if c["tune.target_micro_kcal"] != 1_000_000 {
		t.Errorf("tune.target_micro_kcal = %d, want 1000000", c["tune.target_micro_kcal"])
	}
	if _, ok := c["tune.selected.eps_epol_milli"]; !ok {
		t.Error("tune.selected.eps_epol_milli counter missing")
	}
}

// TestSelectRejectsBadInput pins the input validation.
func TestSelectRejectsBadInput(t *testing.T) {
	mol := molecule.ZDockMolecule(molecule.ZDockRoster()[0])
	if _, err := Select(nil, 1.0, Options{}); err == nil {
		t.Error("nil molecule accepted")
	}
	if _, err := Select(mol, 0, Options{}); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := Select(mol, -1, Options{}); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := Select(mol, math.NaN(), Options{}); err == nil {
		t.Error("NaN target accepted")
	}
	if _, err := Select(mol, 1.0, Options{MaxQuadOrder: 9}); err == nil {
		t.Error("MaxQuadOrder beyond the Dunavant range accepted")
	}
}

// TestRelErrorBoundShape pins the per-term model's monotonicity: the
// bound loosens with ε and bin width, tightens with quadrature degree,
// and is order-independent (the order-aware opening criteria hold the
// truncation ratio fixed across orders — order buys WORK, not error).
func TestRelErrorBoundShape(t *testing.T) {
	base := gb.Accuracy{EpsBorn: 0.9, EpsEpol: 0.9, BinWidth: 0.2, QuadOrder: 1, Order: 1}
	b0 := RelErrorBound(base)
	if !(b0 > 0) {
		t.Fatalf("bound %v, want positive", b0)
	}
	tighterEps := base
	tighterEps.EpsBorn, tighterEps.EpsEpol = 0.45, 0.45
	if RelErrorBound(tighterEps) >= b0 {
		t.Errorf("tighter eps did not tighten the bound: %v vs %v", RelErrorBound(tighterEps), b0)
	}
	finerBin := base
	finerBin.BinWidth = 0.05
	if RelErrorBound(finerBin) >= b0 {
		t.Errorf("finer bins did not tighten the bound: %v vs %v", RelErrorBound(finerBin), b0)
	}
	higherQuad := base
	higherQuad.QuadOrder = 2
	if RelErrorBound(higherQuad) >= b0 {
		t.Errorf("higher quadrature did not tighten the bound: %v vs %v", RelErrorBound(higherQuad), b0)
	}
	for ord := gb.OrderMonopole; ord <= gb.OrderQuadrupole; ord++ {
		p := base
		p.Order = ord
		if got := RelErrorBound(p); got != b0 {
			t.Errorf("order %d changed the bound: %v vs %v (the opening criteria are order-aware)",
				ord, got, b0)
		}
	}
}

// TestDriversWithinBoundAtHigherOrders is the |Epol − Epol_ref| ≤
// ErrorBound regression of PR 8 for p = 1 and p = 2 on every driver:
// serial, shared-memory, message-passing, and hybrid runs at a coarse
// accuracy point must all land within the model bound of the tight
// reference, and each layout must be bitwise reproducible.
func TestDriversWithinBoundAtHigherOrders(t *testing.T) {
	mol := molecule.Exactly(molecule.Globule("bound", 500, 61), 500, 61)
	cfg := surface.DefaultConfig()
	cfg.RuleDegree = 2
	surf, err := surface.Build(mol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := gb.DefaultParams()
	params.Accuracy = gb.Accuracy{
		EpsBorn: 0.3, EpsEpol: 0.3, BinWidth: 0.3 / 8,
		QuadOrder: 2, Order: gb.OrderQuadrupole,
	}
	sys, err := gb.NewSystem(mol, surf, params)
	if err != nil {
		t.Fatal(err)
	}
	ref := mustRun(t, sys, gb.RunSpec{})

	for _, ord := range []int{gb.OrderDipole, gb.OrderQuadrupole} {
		acc := gb.Accuracy{EpsBorn: 0.9, EpsEpol: 0.9, QuadOrder: 2, Order: ord}
		bound := RelErrorBound(acc) * math.Abs(ref.Epol)
		pool := sched.New(4)
		drivers := []struct {
			name string
			run  func() (*gb.Result, error)
		}{
			{"serial", func() (*gb.Result, error) { return sys.Run(gb.RunSpec{Accuracy: &acc}) }},
			{"cilk", func() (*gb.Result, error) { return sys.Run(gb.RunSpec{Pool: pool, Accuracy: &acc}) }},
			{"mpi", func() (*gb.Result, error) { return sys.Run(gb.RunSpec{Processes: 3, Accuracy: &acc}) }},
			{"hybrid", func() (*gb.Result, error) {
				return sys.Run(gb.RunSpec{Processes: 2, ThreadsPerProcess: 2, Accuracy: &acc})
			}},
		}
		for _, d := range drivers {
			a, err := d.run()
			if err != nil {
				t.Fatalf("p=%d %s: %v", ord, d.name, err)
			}
			b, err := d.run()
			if err != nil {
				t.Fatalf("p=%d %s rerun: %v", ord, d.name, err)
			}
			if math.Float64bits(a.Epol) != math.Float64bits(b.Epol) {
				t.Errorf("p=%d %s: Epol not bitwise reproducible: %v vs %v", ord, d.name, a.Epol, b.Epol)
			}
			if got := math.Abs(a.Epol - ref.Epol); got > bound {
				t.Errorf("p=%d %s: |Epol − ref| = %v exceeds model bound %v", ord, d.name, got, bound)
			}
		}
		pool.Close()
	}
}
