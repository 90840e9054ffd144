package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/sched"
	"gbpolar/internal/tune"
)

// largeNames are the large-oneshot molecules: the roster's large end,
// where the octree far field does most of the work.
var largeNames = []string{"1E6E_r_b", "1MAH_r_b", "1BGX_l_b"}

// solveSpec is one operation of large-oneshot: a molecule solved in one
// layout, from the molecule in memory to Epol.
type solveSpec struct {
	mol   int
	cilk2 bool
}

// solveResult is one solve's outcome.
type solveResult struct {
	solveSpec
	sys     *gb.System
	res     *gb.Result
	latency time.Duration
	runWall time.Duration
}

// solve runs surface, system and Run for one molecule under an "op"
// span, with a span per layer.
func solve(m *molecule.Molecule, spec solveSpec, pool *sched.Pool, rec *obs.Recorder, acc *layerAcc) (solveResult, error) {
	root := rec.StartSpan(0, spanOp)
	defer root.End()
	start := time.Now()
	sys, err := buildSystem(m, rec, acc)
	if err != nil {
		return solveResult{}, err
	}
	var p *sched.Pool
	if spec.cilk2 {
		p = pool
	}
	res, wall, err := runLayout(sys, p, rec, acc)
	if err != nil {
		return solveResult{}, err
	}
	return solveResult{solveSpec: spec, sys: sys, res: res, latency: time.Since(start), runWall: wall}, nil
}

// largePassCost is the nominal time of one pass over the six solves on
// a 2-vCPU host: a run makes budget/largePassCost passes (at least one),
// a count fixed by --seconds alone so every run measures the same work.
const largePassCost = 20 * time.Second

// solvePasses runs passes over every (molecule, layout) in the seeded
// order. The i-th solve of the run records into rec and acc when
// traced(i) holds (traced nil: none does). lags are the closed loop's
// gaps between one solve's end and the next's start.
func solvePasses(mols []*molecule.Molecule, order []solveSpec, passes int, pool *sched.Pool, traced func(int) bool, rec *obs.Recorder, acc *layerAcc) (out []solveResult, lags []time.Duration, err error) {
	var prevEnd time.Time
	for pass := 0; pass < passes; pass++ {
		for _, s := range order {
			if !prevEnd.IsZero() {
				lags = append(lags, time.Since(prevEnd))
			}
			sRec, sAcc := (*obs.Recorder)(nil), (*layerAcc)(nil)
			if traced != nil && traced(len(out)) {
				sRec, sAcc = rec, acc
			}
			r, err := solve(mols[s.mol], s, pool, sRec, sAcc)
			if err != nil {
				return nil, nil, err
			}
			prevEnd = time.Now()
			progress()
			out = append(out, r)
		}
	}
	return out, lags, nil
}

// oracle is the exact (naive) Born radii and Epol of one system.
type oracle struct {
	epol    float64
	epolDur time.Duration
}

// oracles computes the naive oracle of each system, width at a time.
func oracles(systems []*gb.System, width int) []oracle {
	out := make([]oracle, len(systems))
	sem := make(chan struct{}, width)
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			radii, _ := sys.NaiveBornRadiiR6()
			start := time.Now()
			e, _ := sys.NaiveEpol(radii)
			out[i] = oracle{epol: e, epolDur: time.Since(start)}
			progress()
		}()
	}
	wg.Wait()
	return out
}

// checkSolves checks every solve against its molecule's oracle within
// the priced tune.RelErrorBound and returns the largest relative error.
func checkSolves(rep *report, solves []solveResult, mols []*molecule.Molecule, orc []oracle) float64 {
	worst := 0.0
	for _, s := range solves {
		o := orc[s.mol]
		bound := tune.RelErrorBound(s.sys.Params.Accuracy)
		what := fmt.Sprintf("%s cilk2=%v", mols[s.mol].Name, s.cilk2)
		rep.check(checkWithinBound(what, s.res.Epol, o.epol, bound))
		worst = max(worst, relErr(s.res.Epol, o.epol))
	}
	return worst
}

// cellLatency is the geometric mean, over the (molecule, layout) cells,
// of each cell's q-quantile solve latency in ms. Every molecule and
// both layouts weigh alike in every percentile: a quantile over all
// solves together would land on the slow serial solves of the largest
// molecules and miss a change in the cilk2 layout.
func cellLatency(solves []solveResult, cells []solveSpec, q float64) float64 {
	lat := map[solveSpec][]float64{}
	for _, s := range solves {
		lat[s.solveSpec] = append(lat[s.solveSpec], ms(s.latency))
	}
	logSum := 0.0
	for _, c := range cells {
		logSum += math.Log(quantile(lat[c], q))
	}
	return math.Exp(logSum / float64(len(cells)))
}

// lastSystems returns one system per molecule from the solves.
func lastSystems(solves []solveResult, n int) []*gb.System {
	out := make([]*gb.System, n)
	for _, s := range solves {
		out[s.mol] = s.sys
	}
	return out
}

func runLargeOneshot(cfg runConfig) (*report, error) {
	rep := newReport()
	setupS, mols, err := timedMedian(15, func() ([]*molecule.Molecule, error) { return rosterMolecules(largeNames) })
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var order []solveSpec
	for i := range mols {
		order = append(order, solveSpec{mol: i}, solveSpec{mol: i, cilk2: true})
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	pool := sched.New(2)
	defer pool.Close()

	if cfg.trace {
		return rep, largeTraced(cfg, rep, mols, order, pool)
	}
	solves, _, err := solvePasses(mols, order, max(1, int(cfg.budget/largePassCost)), pool, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	busy := 0.0
	for _, s := range solves {
		busy += s.latency.Seconds()
	}
	rep.attempted = len(solves)
	for _, s := range solves {
		rep.note("solve %s cilk2=%v %.1f ms (run %.1f ms)", mols[s.mol].Name, s.cilk2, ms(s.latency), ms(s.runWall))
	}
	worst := checkSolves(rep, solves, mols, oracles(lastSystems(solves, len(mols)), 2))
	rep.setE2E("setup_s", setupS, "s")
	rep.setE2E("latency_p50_ms", cellLatency(solves, order, 0.5), "ms")
	rep.setE2E("latency_p90_ms", cellLatency(solves, order, 0.9), "ms")
	rep.setE2E("throughput_per_s", float64(len(solves))/busy, "1/s")
	rep.setE2E("peak_rss_mb", rss, "MB")
	rep.setE2E("ok_frac", 1-float64(rep.failed)/float64(rep.attempted), "1")
	rep.setE2E("max_rel_err", worst, "1")
	return rep, nil
}

// largeTraced is the traced run: every solve of one pass twice, once
// untraced for the overhead baseline and once traced (spans give the
// surface, system and driver layers), then the gb phases and the oracle
// on the prebuilt systems, and probes of the layers this workload does
// not use.
func largeTraced(cfg runConfig, rep *report, mols []*molecule.Molecule, order []solveSpec, pool *sched.Pool) error {
	rec := newTraceRecorder("perfbench large-oneshot")
	acc := newLayerAcc()
	pairs := make([]solveSpec, 0, 2*len(order))
	for _, s := range order {
		pairs = append(pairs, s, s)
	}
	all, lags, err := solvePasses(mols, pairs, 1, pool, tracedAt, rec, acc)
	if err != nil {
		return err
	}
	var solves []solveResult
	var u, t []float64
	for i, s := range all {
		if !tracedAt(i) {
			u = append(u, ms(s.latency))
			continue
		}
		solves = append(solves, s)
		t = append(t, ms(s.latency))
		if s.cilk2 {
			acc.addCilk(s.res, s.runWall)
		} else {
			acc.add("driver.serial_run_ms", ms(s.runWall))
		}
		if err := acc.price(s.res, s.sys, s.runWall); err != nil {
			return err
		}
	}
	rep.attempted = len(all)
	overhead(rep, u, t)
	rep.setLayer("gen.lag_ms_p99", lagP99(lags), "ms")

	systems := lastSystems(solves, len(mols))
	for _, sys := range systems {
		measurePhases(sys, rec, acc, false)
	}
	// One at a time, like the octree phases above, so the two times in
	// gb.octree_vs_naive are taken alike.
	sp := rec.StartSpan(0, "gb.naive")
	orc := oracles(systems, 1)
	sp.End()
	for i, o := range orc {
		acc.add("gb.naive_epol_ms", ms(o.epolDur))
		rep.note("gb.octree_vs_naive %s %.4f", mols[i].Name, acc.samples["gb.epol_ms"][i]/ms(o.epolDur))
	}
	checkSolves(rep, all, mols, orc)
	if err := probeServe(cfg, rep, acc); err != nil {
		return err
	}
	if err := probeDock(pool, acc); err != nil {
		return err
	}
	acc.finish(rep, rec)
	return writeTrace(cfg.traceTo, rec)
}
