package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"gbpolar/internal/dock"
	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
)

// dock-scan settings.
const (
	dockReceptor  = "1MLC_l_b"
	dockLigand    = "1PPE_l_b"
	dockSphere    = 512 // SpherePoses directions the seed samples from
	dockClearance = 2.5 // Å between the enclosing balls: no pose clashes
	dockPoses     = 48  // poses per FastScoreAll call (one operation)
	// dockPoseSample is how many poses the per-pose layer metrics time.
	dockPoseSample = 8
	// dockTracedPasses is the number of passes the traced run plays
	// traced, and again untraced, interleaved (see tracedAt).
	dockTracedPasses = 3
	// dockFullSample are the sphere directions (independent of the seed)
	// whose fast scores are compared with full rebuilds.
	dockFullSample = 4
)

// dockFixture is the scorer and the seeded pose set.
type dockFixture struct {
	rec, lig *molecule.Molecule
	scorer   *dock.Scorer
	poses    []dock.Pose
	sphere   []dock.Pose
	// rng reorders the poses before every pass, so each pass splits
	// them over the workers differently.
	rng *rand.Rand
}

func newScorer(rec, lig *molecule.Molecule) (*dock.Scorer, error) {
	s, err := dock.NewScorer(rec, lig, gb.DefaultParams(), surface.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("dock scorer: %w", err)
	}
	return s, nil
}

// setup_s on dock-scan is the median of dockRounds×dockSetupsPerRound
// NewScorer calls, made in dockRounds bursts spread over the timed run
// (one call takes about 0.1 s on a 2-vCPU host): the host's speed
// drifts over seconds, and calls made together would sample only one
// moment of it.
const (
	dockRounds         = 5
	dockSetupsPerRound = 5
)

// newDockFixture builds the scorer dockSetupsPerRound times, timing
// each call, and draws the seeded pose subset.
func newDockFixture(seed int64) (*dockFixture, []float64, error) {
	mols, err := rosterMolecules([]string{dockReceptor, dockLigand})
	if err != nil {
		return nil, nil, err
	}
	f := &dockFixture{rec: mols[0], lig: mols[1]}
	setups, err := f.timeSetups(dockSetupsPerRound)
	if err != nil {
		return nil, nil, err
	}
	f.sphere = f.scorer.SpherePoses(dockSphere, dockClearance)
	// One pose from each of dockPoses equal strata of the Fibonacci
	// sphere (its index runs pole to pole), so every seed covers the
	// receptor alike.
	f.rng = rand.New(rand.NewSource(seed))
	for k := 0; k < dockPoses; k++ {
		lo, hi := k*dockSphere/dockPoses, (k+1)*dockSphere/dockPoses
		f.poses = append(f.poses, f.sphere[lo+f.rng.Intn(hi-lo)])
	}
	return f, setups, nil
}

// timeSetups calls NewScorer n times and returns each call's wall time
// in seconds. The fixture keeps the first scorer it builds.
func (f *dockFixture) timeSetups(n int) ([]float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		s, err := newScorer(f.rec, f.lig)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if f.scorer == nil {
			f.scorer = s
		}
		progress()
	}
	return times, nil
}

// scorePasses scores the whole pose set with one FastScoreAll call per
// pass, pass after pass, until the budget is spent (at least minPasses
// passes). Pass k records spans into rec when traced(k) holds (traced
// nil: no pass does). It returns each pass's latency and scores by
// label, and the number of clashing poses.
func (f *dockFixture) scorePasses(pool *sched.Pool, budget time.Duration, minPasses int, traced func(int) bool, rec *obs.Recorder) (lat []float64, passes []map[string]float64, lags []time.Duration, clashes int, err error) {
	start := time.Now()
	var prevEnd time.Time
	for pass := 0; pass < minPasses || time.Since(start)*time.Duration(pass+1)/time.Duration(pass) <= budget; pass++ {
		f.rng.Shuffle(len(f.poses), func(i, j int) { f.poses[i], f.poses[j] = f.poses[j], f.poses[i] })
		if !prevEnd.IsZero() {
			lags = append(lags, time.Since(prevEnd))
		}
		pRec := (*obs.Recorder)(nil)
		if traced != nil && traced(pass) {
			pRec = rec
		}
		root := pRec.StartSpan(0, spanOp)
		sp := pRec.StartSpan(0, "dock.fast_score_all")
		t0 := time.Now()
		out, err := f.scorer.FastScoreAll(pool, f.poses)
		d := time.Since(t0)
		sp.End()
		root.End()
		prevEnd = time.Now()
		progress()
		if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("scoring poses: %w", err)
		}
		lat = append(lat, ms(d))
		scores := map[string]float64{}
		for _, s := range out {
			scores[s.Pose.Label] = s.DeltaEpol
			if s.Clash {
				clashes++
			}
		}
		passes = append(passes, scores)
	}
	return lat, passes, lags, clashes, nil
}

// fastVsFull scores the fixed sample both ways, one pose at a time. It
// returns the largest relative error of the fast complex energy against
// the full rebuild's, and the mean per-pose times of both paths.
func (f *dockFixture) fastVsFull() (worst float64, fast, full time.Duration, err error) {
	base := f.scorer.ReceptorEnergy() + f.scorer.LigandEnergy()
	for k := 0; k < dockFullSample; k++ {
		p := f.sphere[k*dockSphere/dockFullSample]
		t0 := time.Now()
		fs, err := f.scorer.FastScorePose(p)
		fast += time.Since(t0)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("fast-scoring %s: %w", p.Label, err)
		}
		t0 = time.Now()
		ss, err := f.scorer.ScorePose(p)
		full += time.Since(t0)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("scoring %s: %w", p.Label, err)
		}
		worst = max(worst, relErr(fs.DeltaEpol+base, ss.DeltaEpol+base))
		progress()
	}
	return worst, fast / dockFullSample, full / dockFullSample, nil
}

func runDockScan(cfg runConfig) (*report, error) {
	rep := newReport()
	f, setups, err := newDockFixture(cfg.seed)
	if err != nil {
		return nil, err
	}
	pool := sched.New(2)
	defer pool.Close()
	if cfg.trace {
		return rep, dockTraced(cfg, rep, f, median(setups), pool)
	}
	var lat []float64
	var passes []map[string]float64
	for r := 0; r < dockRounds; r++ {
		if r > 0 {
			t, err := f.timeSetups(dockSetupsPerRound)
			if err != nil {
				return nil, err
			}
			setups = append(setups, t...)
		}
		l, p, _, _, err := f.scorePasses(pool, cfg.budget/dockRounds, 1, nil, nil)
		if err != nil {
			return nil, err
		}
		lat = append(lat, l...)
		passes = append(passes, p...)
	}
	rss := peakRSSMB()
	busy := sumOf(lat) / 1e3
	scored := len(passes) * len(f.poses)
	rep.attempted = scored
	rep.check(checkScorePasses(passes))
	worst, _, _, err := f.fastVsFull()
	if err != nil {
		return nil, err
	}
	rep.setE2E("setup_s", median(setups), "s")
	rep.setE2E("latency_p50_ms", median(lat), "ms")
	rep.setE2E("latency_p90_ms", quantile(lat, 0.9), "ms")
	rep.setE2E("throughput_per_s", float64(scored)/busy, "1/s")
	rep.setE2E("peak_rss_mb", rss, "MB")
	rep.setE2E("ok_frac", 1-float64(rep.failed)/float64(rep.attempted), "1")
	rep.setE2E("max_rel_err", worst, "1")
	return rep, nil
}

// dockTraced is the traced run: interleaved untraced and traced passes
// over the poses, the dock layer's per-pose cost (fast path, op counts
// through gb.Complex, fast/full ratio), the surface/system/gb/driver
// layers on the receptor and ligand, and a probe of the serve layers.
func dockTraced(cfg runConfig, rep *report, f *dockFixture, setupS float64, pool *sched.Pool) error {
	rec := newTraceRecorder("perfbench dock-scan")
	acc := newLayerAcc()
	lat, passes, lags, clashes, err := f.scorePasses(pool, 0, 2*dockTracedPasses, tracedAt, rec)
	if err != nil {
		return err
	}
	var untraced, traced []float64
	for k, l := range lat {
		if tracedAt(k) {
			traced = append(traced, l)
		} else {
			untraced = append(untraced, l)
		}
	}
	rep.attempted = len(passes) * len(f.poses)
	rep.check(checkScorePasses(passes))
	overhead(rep, untraced, traced)
	rep.setLayer("gen.lag_ms_p99", lagP99(lags), "ms")
	acc.add("dock.scorer_setup_ms", setupS*1e3)
	acc.add("dock.clash_frac", float64(clashes)/float64(rep.attempted))

	_, fast, full, err := f.fastVsFull()
	if err != nil {
		return err
	}
	acc.add("dock.fast_vs_full", float64(fast)/float64(full))
	rep.note("dock fast path %.1f ms/pose, full rebuild %.1f ms/pose", ms(fast), ms(full))
	if err := dockPoseCost(f, rec, acc); err != nil {
		return err
	}
	if err := measureMolecules([]*molecule.Molecule{f.rec, f.lig}, pool, rec, acc); err != nil {
		return err
	}
	if err := probeServe(cfg, rep, acc); err != nil {
		return err
	}
	acc.finish(rep, rec)
	return writeTrace(cfg.traceTo, rec)
}

// dockPoseCost times FastScorePose one pose at a time and counts each
// pose's interaction evaluations through a gb.Complex built the way the
// scorer builds its own.
func dockPoseCost(f *dockFixture, rec *obs.Recorder, acc *layerAcc) error {
	recSys, err := buildSystem(f.rec, rec, nil)
	if err != nil {
		return err
	}
	ligSys, err := buildSystem(f.lig, rec, nil)
	if err != nil {
		return err
	}
	cx, err := gb.NewComplex(recSys, ligSys)
	if err != nil {
		return fmt.Errorf("dock complex: %w", err)
	}
	for _, p := range f.poses[:dockPoseSample] {
		sp := rec.StartSpan(0, "dock.pose")
		t0 := time.Now()
		if _, err := f.scorer.FastScorePose(p); err != nil {
			return fmt.Errorf("fast-scoring %s: %w", p.Label, err)
		}
		acc.add("dock.pose_ms", ms(time.Since(t0)))
		sp.End()
		res, err := cx.Epol(p.Transform)
		if err != nil {
			return fmt.Errorf("complex pose %s: %w", p.Label, err)
		}
		if math.IsNaN(res.Epol) {
			return fmt.Errorf("complex pose %s: NaN energy", p.Label)
		}
		acc.add("dock.pose_ops", float64(res.Ops))
		progress()
	}
	return nil
}

// probeDock measures the dock layer for a workload that does not use
// it: the dock-scan scorer and the first dockPoseSample poses of its
// seed-1 set.
func probeDock(pool *sched.Pool, acc *layerAcc) error {
	f, setups, err := newDockFixture(1)
	if err != nil {
		return err
	}
	acc.add("dock.scorer_setup_ms", median(setups)*1e3)
	f.poses = f.poses[:dockPoseSample]
	_, _, _, clashes, err := f.scorePasses(pool, 0, 1, nil, nil)
	if err != nil {
		return err
	}
	acc.add("dock.clash_frac", float64(clashes)/float64(len(f.poses)))
	_, fast, full, err := f.fastVsFull()
	if err != nil {
		return err
	}
	acc.add("dock.fast_vs_full", float64(fast)/float64(full))
	return dockPoseCost(f, nil, acc)
}
