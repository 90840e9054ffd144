package gb

import (
	"fmt"
	"sort"
	"time"

	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
	"gbpolar/internal/sched"
	"gbpolar/internal/simmpi"
)

// Result is the outcome of one full polarization-energy computation
// (Born radii + Epol) under some parallel driver.
type Result struct {
	// Epol is the polarization energy in kcal/mol.
	Epol float64
	// Born holds the Born radii indexed by original atom index.
	Born []float64
	// Processes and ThreadsPerProcess describe the layout (P and p).
	Processes, ThreadsPerProcess int
	// PerCoreOps holds the measured interaction-evaluation count of every
	// core (P×p entries): the input to the performance model.
	PerCoreOps []int64
	// Traffic is the communication log (empty for shared-memory runs).
	Traffic simmpi.Stats
	// Wall is the in-process wall-clock time of the run.
	Wall time.Duration
	// Steals counts work-stealing events (shared-memory runs).
	Steals int64

	// Degraded marks a partial result: ranks died mid-run under the
	// Degrade policy and Epol is missing their final-phase contributions.
	// |Epol_serial − Epol| ≤ ErrorBound then holds (see degradedBound).
	Degraded bool
	// ErrorBound is the guaranteed bound on the missing energy mass of a
	// Degraded result, in kcal/mol. Zero when not degraded.
	ErrorBound float64
	// LostRanks are the ranks lost to injected crashes during the run.
	LostRanks []int
	// Recovered reports that lost or straggling ranks' work was
	// re-assigned to survivors (at least one phase was healed).
	Recovered bool
}

// TotalOps sums the per-core operation counts.
func (r *Result) TotalOps() int64 {
	t := int64(0)
	for _, o := range r.PerCoreOps {
		t += o
	}
	return t
}

// Span names of the algorithm phases; comm spans ("comm:<kind>") are
// opened inside simmpi and fault-recovery redo iterations carry a
// "redo:" prefix (see phaseName).
const (
	spanRank   = "rank"
	spanBorn   = "approx-integrals"
	spanPush   = "push-integrals-to-atoms"
	spanOctree = "octree-build"
	spanEpol   = "approx-epol"
	redoPrefix = "redo:"
)

// phaseName names a phase span, marking heal-by-redo repeat iterations.
func phaseName(base string, iter int) string {
	if iter == 0 {
		return base
	}
	return redoPrefix + base
}

// Obs names of a phase's near/far evaluation split: the work-done
// counters, then the counter-side ".rank" histograms.
var (
	bornPairNames = [4]string{"pairs.born.near", "pairs.born.far", "pairs.born.near.rank", "pairs.born.far.rank"}
	epolPairNames = [4]string{"pairs.epol.near", "pairs.epol.far", "pairs.epol.near.rank", "pairs.epol.far.rank"}
)

// publish records one rank's (or the shared-memory run's) split of a
// phase iteration. The counters are work-done totals across ranks and
// redo iterations, deterministic for crash-free runs; the histograms'
// per-rank distribution shows the static division's load imbalance.
func (t pairTally) publish(rec *obs.Recorder, names *[4]string) {
	rec.Count(names[0], t.near)
	rec.Count(names[1], t.far)
	rec.Observe(names[2], t.near)
	rec.Observe(names[3], t.far)
}

// epolPart is the energy-phase reduction accumulator: the partial raw sum
// plus the near/far evaluation tally riding along. The sum field is
// accumulated and merged exactly like the former bare *float64, so the
// reduction stays bitwise identical.
type epolPart struct {
	sum   float64
	tally pairTally
}

func newEpolPart() *epolPart { return new(epolPart) }

func (p *epolPart) merge(o *epolPart) {
	p.sum += o.sum
	p.tally.add(o.tally)
}

// bornFold is the Born phase body every driver folds: quadrature leaves
// qs[i0:i1] against the atoms of item range [lo, hi) (bornPass.runRange,
// which is run itself on the full range), evaluations counted into
// ops[worker].
func (s *System) bornFold(qs []int32, lo, hi int, ops []int64) func(worker, i0, i1 int, acc *bornAccum) {
	bp := s.bornPass(s.q)
	return func(worker, i0, i1 int, acc *bornAccum) {
		n := int64(0)
		for _, q := range qs[i0:i1] {
			n += bp.runRange(s.TA.Root(), q, int32(lo), int32(hi), acc)
		}
		ops[worker] += n
	}
}

// epolFold is the energy phase body every driver folds: atom leaves
// vs[i0:i1], clipped to item range [lo, hi), against the whole tree.
func (s *System) epolFold(agg *epolAggregates, vs []int32, lo, hi int, ops []int64) func(worker, i0, i1 int, part *epolPart) {
	return func(worker, i0, i1 int, part *epolPart) {
		sum, n := s.epolPass(agg, agg, &part.tally).within(lo, hi).leaves(vs[i0:i1])
		part.sum += sum
		ops[worker] += n
	}
}

// runShared is the shared-memory driver, instrumented: OCT_CILK on a
// work-stealing pool, or the serial octree baseline (P = p = 1) when pool
// is nil — one fold in leaf order, whose phase structure and
// floating-point operation order are exactly BornRadii + Epol (asserted
// by runspec_test.go).
func (s *System) runShared(pool *sched.Pool, rec *obs.Recorder) *Result {
	sw := perf.StartTimer()
	root := rec.StartSpan(0, spanRank)
	defer root.End()
	p := 1
	var stealsBefore int64
	if pool != nil {
		p = pool.NumWorkers()
		stealsBefore = pool.Steals()
	}
	perWorkerOps := make([]int64, p)

	// Phase A: APPROX-INTEGRALS over quadrature leaves. Accumulators are
	// per-SUBRANGE, not per-worker, and merged in range order: under
	// randomized stealing the leaf→worker assignment varies run to run, and
	// per-worker accumulation would make the floating-point merge order —
	// and hence the low bits of every radius and energy — scheduling-
	// dependent. reduceRange pins the reduction tree to (n, grain) so
	// results are bitwise reproducible (see determinism_test.go).
	n := s.NumAtoms()
	sp := rec.StartSpan(0, spanBorn)
	acc := reduceRange(pool, len(s.qLeaves), s.newBornAccum,
		s.bornFold(s.qLeaves, 0, n, perWorkerOps), (*bornAccum).add)
	sp.End()

	// Phase B: PUSH-INTEGRALS over atom segments.
	sp = rec.StartSpan(0, spanPush)
	radii := make([]float64, n)
	s.forRange(pool, n, func(worker, lo, hi int) {
		perWorkerOps[worker] += s.PushIntegralsToAtoms(acc, lo, hi, radii)
	})
	sp.End()

	// Phase C: APPROX-Epol over atom leaves, reduced in range order for the
	// same bitwise reproducibility as phase A.
	sp = rec.StartSpan(0, spanOctree)
	agg := s.buildEpolAggregates(radii)
	sp.End()
	sp = rec.StartSpan(0, spanEpol)
	part := reduceRange(pool, len(s.aLeaves), newEpolPart,
		s.epolFold(agg, s.aLeaves, 0, n, perWorkerOps), (*epolPart).merge)
	sp.End()

	acc.publish(rec, &bornPairNames)
	part.tally.publish(rec, &epolPairNames)
	res := &Result{
		Epol:      -0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * part.sum,
		Born:      radii,
		Processes: 1, ThreadsPerProcess: p,
		PerCoreOps: balancePool(perWorkerOps),
	}
	if pool != nil {
		res.Steals = pool.Steals() - stealsBefore
		rec.GaugeAdd("sched.steals", res.Steals)
	}
	res.Wall = sw.Elapsed()
	return res
}

// balancePool redistributes a work-stealing pool's operation counts evenly
// across its workers. On the execution host the raw per-worker counts
// reflect goroutine scheduling, not the algorithm: the randomized
// work-stealing scheduler guarantees T_p ≤ W/p + O(span) on a real
// multicore, so the modeled per-core load is the fair share W/p (the
// remainder is spread over the first workers). Distribution across RANKS
// (static division) is left untouched — that imbalance is algorithmic.
func balancePool(ops []int64) []int64 {
	total := int64(0)
	for _, o := range ops {
		total += o
	}
	p := int64(len(ops))
	out := make([]int64, len(ops))
	for i := range out {
		out[i] = total / p
		if int64(i) < total%p {
			out[i]++
		}
	}
	return out
}

// validateLayout rejects impossible process layouts up front with a
// descriptive error instead of producing empty segments downstream.
func (s *System) validateLayout(scheme Scheme, P, p int) error {
	if P <= 0 {
		return fmt.Errorf("gb: invalid layout: processes P=%d must be positive", P)
	}
	if p <= 0 {
		return fmt.Errorf("gb: invalid layout: threads per process p=%d must be positive", p)
	}
	ranks := P
	if scheme == Dynamic {
		ranks-- // the coordinator rank holds no atoms
	}
	if ranks > s.NumAtoms() {
		return fmt.Errorf("gb: invalid layout: %d compute ranks exceed the %d atoms (at most one atom per rank segment)", ranks, s.NumAtoms())
	}
	switch {
	case scheme == Segmented:
		if n := s.NumQPoints(); P > n {
			return fmt.Errorf("gb: invalid layout: P=%d exceeds the %d quadrature points to distribute", P, n)
		}
	case scheme == Replicated && s.Params.Division == NodeNode:
		// Dynamic is exempt: its leaf chunks are served on demand, so a
		// rank without leaves just idles.
		if n := len(s.qLeaves); P > n {
			return fmt.Errorf("gb: invalid layout: P=%d exceeds the %d quadrature leaves of the node division", P, n)
		}
		if n := len(s.aLeaves); P > n {
			return fmt.Errorf("gb: invalid layout: P=%d exceeds the %d atom leaves of the node division", P, n)
		}
	}
	return nil
}

// runDistributed executes a distributed run under spec.Scheme: the one
// phase skeleton — Born integrals, Born radii, energy aggregates, energy —
// every scheme plugs its phase bodies into. With an inactive fault
// config it reproduces each scheme's seed protocol bit-for-bit. With an
// active plan, the phases run under the heal-by-redo discipline
// described in faulttol.go (rankRun.heal): partition over the agreed
// live set, run the phase, re-agree, and redo the phase over the shrunk
// set if membership changed — or, for the final energy phase under the
// Degrade policy, accept the partial sum and report a rigorous
// ErrorBound for the dead ranks' missing share.
//
// With spec.Checkpoint set, a snapshot of the world-global state is saved
// after each completed phase inside Sync brackets (quiet barriers), so
// the sink perturbs neither the numbers nor the counter-side Summary.
// With spec.Resume set, completed phases are skipped: their merged state
// comes from the snapshot and the run re-enters at the first incomplete
// phase. The restored obs.CounterSnapshot makes the resumed run's Summary
// cover the whole logical run; the initial membership agreement is
// skipped on resume because the snapshot's run already performed it (the
// resumed half starts with all its ranks live and agrees after its first
// phase as usual). Only Replicated checkpoints (see validateScheme).
func (s *System) runDistributed(P, p int, spec RunSpec) (*Result, error) {
	cfg, rec, sink, resume := spec.Faults, spec.Obs, spec.Checkpoint, spec.Resume
	if err := s.validateLayout(spec.Scheme, P, p); err != nil {
		return nil, err
	}
	sw := perf.StartTimer()

	startPhase := PhaseNone
	if resume != nil {
		startPhase = resume.Phase
		rec.RestoreCounterSnapshot(resume.Obs)
		if startPhase >= PhaseEpol {
			// The snapshot is a finished run: reconstruct the Result without
			// spinning up a world. The Summary covers everything the snapshot
			// did (all phases); only the rank-root spans — open while the
			// snapshot was taken — are absent, since no world runs here.
			n := s.NumAtoms()
			radii := make([]float64, n)
			copy(radii, resume.Payload[:n])
			return &Result{
				Epol: resume.Payload[n], Born: radii,
				Processes: P, ThreadsPerProcess: p,
				PerCoreOps: make([]int64, P*p),
				Wall:       sw.Elapsed(),
				Degraded:   resume.Payload[n+1] != 0,
				ErrorBound: resume.Payload[n+2],
			}, nil
		}
	}
	perCoreOps := make([]int64, P*p)

	// Every rank that completes records its outcome in its own slot; the
	// lowest surviving rank's slot becomes the Result. (All survivors hold
	// identical agreed values — per-rank slots just keep the writes
	// race-free without electing a writer, which would itself be a
	// fault-prone protocol.)
	type rankOutcome struct {
		done      bool
		energy    float64
		radii     []float64
		steals    int64
		degraded  bool
		bound     float64
		recovered bool
	}
	outs := make([]rankOutcome, P)
	ft := cfg.active()

	//lint:ignore ctxflow the world's run IS this call; RunSpec.Ctx is observed cooperatively at phase boundaries (spec.canceled), not by interrupting ranks
	traffic, err := simmpi.RunPlanObs(P, cfg.plan(), rec, func(c *simmpi.Comm) error {
		rank := c.Rank()
		// The rank root span. Its deferred End force-closes any phase span
		// leaked by an error return or an injected crash (panic unwind), so
		// the exported span tree stays balanced on every path.
		rankSpan := rec.StartSpan(rank, spanRank)
		defer rankSpan.End()
		r := &rankRun{
			s: s, c: c, rec: rec, cfg: cfg, scheme: spec.Scheme,
			ops: perCoreOps[rank*p : (rank+1)*p],
			P:   P, rank: rank, ft: ft,
		}
		if p > 1 {
			r.pool = sched.New(p)
			r.pool.Observe(rec)
			defer r.pool.Close()
		}
		if ft {
			if startPhase == PhaseNone {
				var err error
				if r.lost, err = agreeLost(c); err != nil {
					return err
				}
			}
			// On resume the saving run already performed the initial
			// membership agreement (it is part of the restored counter
			// snapshot), and every rank of this fresh world is live.
			// Running it again would double the op and counter cost
			// relative to an uninterrupted run; the first post-phase
			// agreement catches any injected early crash.
			r.live = liveRanksOf(P, r.lost)
			if spec.Scheme == Replicated {
				// Slowed ranks shed half their share (Segmented's shares
				// are its fixed data segments).
				r.stragglers = c.Health().Straggling
				r.recovered = len(r.stragglers) > 0
			}
		}
		// saveCheckpoint snapshots the agreed world-global state after a
		// completed phase. The bracket Syncs are quiet barriers: the first
		// guarantees every live rank finished the phase's counting before
		// the lowest live rank encodes (one writer, no concurrent Save),
		// the second holds the others until the write is durable. Nothing
		// here is a fault point or a deterministic counter, so a run with a
		// sink is op- and Summary-identical to one without.
		saveCheckpoint := func(phase CheckpointPhase, payload func() []float64) error {
			if sink == nil {
				return nil
			}
			if err := c.Sync(); err != nil {
				return err
			}
			liveNow := r.live
			if !ft {
				liveNow = liveRanksOf(P, nil)
			}
			if len(liveNow) > 0 && rank == liveNow[0] {
				enc := (&Checkpoint{
					Phase: phase, Processes: P,
					Live: liveNow, Lost: r.lost,
					ConfigTag: s.configTag(),
					EpsBorn:   s.Params.Accuracy.EpsBorn,
					EpsEpol:   s.Params.Accuracy.EpsEpol,
					Payload:   payload(),
					Obs:       rec.CounterSnapshot(),
				}).Encode()
				c.RecordCheckpoint(int64(len(enc)))
				if err := sink.Save(phase, enc); err != nil {
					return fmt.Errorf("gb: saving %s checkpoint: %w", phase, err)
				}
			}
			return c.Sync()
		}
		// endPhase closes a completed phase: its checkpoint is durable, so
		// a cancellation here loses no completed work. Every rank evaluates
		// the same check at the same program point; any rank returning the
		// error aborts the world, so no rank can block in the next phase's
		// collective.
		endPhase := func(phase CheckpointPhase, payload func() []float64) error {
			if err := saveCheckpoint(phase, payload); err != nil {
				return err
			}
			return spec.canceled()
		}

		// ---- Phase 1+2+3: Born integrals (Fig. 4 Steps 1-3) -------------
		// seg carries the Segmented scheme's own-segment state; the
		// replicated schemes merge one world-global accumulator.
		var acc *bornAccum
		var seg *segRun
		if startPhase < PhaseIntegrals {
			var err error
			if spec.Scheme == Segmented {
				seg, err = r.segIntegrals()
			} else {
				acc, err = r.integrals()
			}
			if err != nil {
				return err
			}
			if err := endPhase(PhaseIntegrals, acc.encode); err != nil {
				return err
			}
		} else if startPhase == PhaseIntegrals {
			// Resume: the merged integrals come from the snapshot; nothing to
			// recompute or communicate. (Resuming past this phase, the
			// accumulator is never read and stays nil.)
			acc = s.newBornAccum()
			acc.decode(resume.Payload)
		}

		// ---- Phase 4+5: Born radii + gather (Fig. 4 Steps 4-5) ----------
		radii := make([]float64, s.NumAtoms())
		if startPhase < PhaseRadii {
			var err error
			if seg != nil {
				err = seg.gatherRadii(radii)
			} else {
				err = r.radii(acc, radii)
			}
			if err != nil {
				return err
			}
			if err := endPhase(PhaseRadii, func() []float64 { return radii }); err != nil {
				return err
			}
		} else {
			copy(radii, resume.Payload[:s.NumAtoms()])
		}

		// ---- Phase 6: energy aggregates ----------------------------------
		var agg *epolAggregates
		if startPhase < PhaseAggregates {
			if seg != nil {
				if err := seg.radiusRange(radii); err != nil {
					return err
				}
			} else {
				osp := rec.StartSpan(rank, spanOctree)
				agg = s.buildEpolAggregates(radii)
				osp.End()
			}
			if err := endPhase(PhaseAggregates, func() []float64 { return radii }); err != nil {
				return err
			}
		} else {
			// The aggregates are a cheap deterministic function of the radii:
			// rebuild them rather than resurrect them from bytes, but without
			// opening a span — the restored snapshot already counted the
			// original octree-build spans.
			agg = s.buildEpolAggregates(radii)
		}

		// ---- Phase 6+7: partial energies + reduction (Fig. 4 Steps 6-7) -
		var sum float64
		var err error
		if seg != nil {
			sum, err = seg.energy(radii)
		} else {
			sum, err = r.energy(agg)
		}
		if err != nil {
			return err
		}
		energy := -0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * sum
		if err := saveCheckpoint(PhaseEpol, func() []float64 {
			pl := make([]float64, 0, s.NumAtoms()+3)
			pl = append(pl, radii...)
			deg := 0.0
			if r.degraded {
				deg = 1
			}
			return append(pl, energy, deg, r.bound)
		}); err != nil {
			return err
		}

		out := &outs[rank]
		out.energy = energy
		out.radii = radii
		out.degraded = r.degraded
		out.bound = r.bound
		out.recovered = r.recovered
		if r.pool != nil {
			out.steals = r.pool.Steals()
		}
		out.done = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	winner := -1
	for r := 0; r < P; r++ {
		if outs[r].done {
			winner = r
			break
		}
	}
	if winner < 0 {
		return nil, fmt.Errorf("gb: no rank survived the run (lost ranks %v)", traffic.LostRanks)
	}
	if p > 1 {
		// Balance each rank's pool counts (see balancePool): the
		// cross-rank distribution stays as measured.
		for rank := 0; rank < P; rank++ {
			copy(perCoreOps[rank*p:(rank+1)*p], balancePool(perCoreOps[rank*p:(rank+1)*p]))
		}
	}
	w := &outs[winner]
	return &Result{
		Epol: w.energy, Born: w.radii,
		Processes: P, ThreadsPerProcess: p,
		PerCoreOps: perCoreOps,
		Traffic:    traffic,
		Wall:       sw.Elapsed(),
		Steals:     w.steals,
		Degraded:   w.degraded,
		ErrorBound: w.bound,
		LostRanks:  traffic.LostRanks,
		Recovered:  w.recovered,
	}, nil
}

// rankRun is one rank's state in a distributed run: its communicator, its
// per-thread operation counters, and the agreed membership plus fault
// flags every phase's heal loop updates. Membership only changes through
// agreeLost, so all live ranks hold identical values at every phase
// boundary.
type rankRun struct {
	s      *System
	c      *simmpi.Comm
	rec    *obs.Recorder
	cfg    *FaultConfig
	scheme Scheme
	pool   *sched.Pool // nil at one thread per rank
	// ops are this rank's per-thread slots of the run's PerCoreOps.
	ops     []int64
	P, rank int
	ft      bool // the fault-tolerance protocol runs

	lost, live, stragglers []int
	recovered, degraded    bool
	bound                  float64
}

// share partitions n items for a rank: the seed's static segment
// without faults, the agreed-live straggler-weighted partition with them,
// and under Dynamic the static segment over the compute ranks 1..P−1
// (the coordinator, rank 0, gets nothing).
func (r *rankRun) share(n, rank int) (int, int) {
	switch {
	case r.scheme == Dynamic && rank == 0:
		return 0, 0
	case r.scheme == Dynamic:
		return segment(n, r.P-1, rank-1)
	case r.ft:
		return liveShare(n, r.live, r.stragglers, rank)
	}
	return segment(n, r.P, rank)
}

// energyShare is rank d's energy share as an atom item range: its atom
// range under the atom division, the items of its leaf range under the
// node division, and every atom under Dynamic, whose chunks may come
// from any leaf range.
func (r *rankRun) energyShare(d int) (lo, hi int) {
	s := r.s
	switch {
	case r.scheme == Dynamic:
		return 0, s.NumAtoms()
	case s.Params.Division == AtomNode:
		return r.share(s.NumAtoms(), d)
	}
	l0, l1 := r.share(len(s.aLeaves), d)
	if l0 >= l1 {
		return 0, 0
	}
	return int(s.TA.Nodes[s.aLeaves[l0]].Start), int(s.TA.Nodes[s.aLeaves[l1-1]].End)
}

// heal runs one phase under the heal-by-redo discipline (see faulttol.go).
// Each iteration ticks the fault clock, opens the phase span, and runs
// step — the phase's compute over the current live set plus its
// collective. Under the fault protocol the survivors then re-agree on the
// lost set: an iteration whose membership changed is discarded and step
// runs again over the shrunk set. When deadShare is non-nil and the
// policy is Degrade, such an iteration is instead accepted, with an
// ErrorBound over the V-side atoms deadShare lists for each newly lost
// rank (evaluated against the partition the iteration ran with). The
// iteration count feeds the "redo.iterations" histogram, a workload
// property: zero on every rank for crash-free plans.
func (r *rankRun) heal(span string, step func() error, deadShare func(d int) []int32) error {
	iter := 0
	for ; ; iter++ {
		if iter > r.P {
			return fmt.Errorf("gb: %s phase heal did not converge", span)
		}
		if r.ft {
			if err := r.c.Tick(); err != nil {
				return err
			}
		}
		sp := r.rec.StartSpan(r.rank, phaseName(span, iter))
		if err := step(); err != nil {
			return err
		}
		if !r.ft {
			sp.End()
			break
		}
		newLost, err := agreeLost(r.c)
		if err != nil {
			return err
		}
		if equalInts(newLost, r.lost) {
			sp.End()
			break
		}
		if deadShare != nil && r.cfg.Policy == Degrade {
			// Accept the partial result and bound the energy mass the newly
			// dead ranks' shares would have contributed. Conservative for a
			// rank that died after contributing (its real missing mass is
			// zero ≤ bound).
			var deadAtoms []int32
			for _, d := range newlyLost(r.lost, newLost) {
				//lint:ignore hotalloc cold degrade path; the dead share's atom count is unknown until the walk completes
				deadAtoms = append(deadAtoms, deadShare(d)...)
			}
			// A Replicated share is an item range of the symmetric
			// whole-tree walk (degradedBound doubles its cross term).
			r.bound = r.s.degradedBound(deadAtoms, r.scheme != Segmented)
			r.degraded = true
			sp.End()
			break
		}
		r.lost, r.live = newLost, liveRanksOf(r.P, newLost)
		r.recovered = true
		sp.End()
	}
	r.rec.Observe("redo.iterations", int64(iter))
	return nil
}

// reduceLeaves folds fn over this rank's leaves [lo, hi) of a phase's
// n-leaf list (see reduceRange); fn receives absolute leaf bounds. Under
// Dynamic the leaves arrive instead as coordinator-served chunks of
// [0, n) folded in grant order, and the coordinator folds nothing.
func reduceLeaves[T any](r *rankRun, n, lo, hi int, mk func() T, fn func(worker, lo, hi int, acc T), merge func(dst, src T)) (T, error) {
	if r.scheme == Dynamic {
		acc := mk()
		if r.rank == 0 {
			return acc, coordinate(r.c, n)
		}
		return acc, drainChunks(r.c, func(lo, hi int) { fn(0, lo, hi, acc) })
	}
	return reduceRange(r.pool, hi-lo, mk, func(worker, i0, i1 int, acc T) {
		fn(worker, lo+i0, lo+i1, acc)
	}, merge), nil
}

// integrals is Fig. 4 Steps 1-3: this rank's share of APPROX-INTEGRALS,
// merged across ranks by Allreduce. The node division shares out the
// quadrature leaves against every atom, the atom division every
// quadrature leaf against the rank's atom range. Each heal iteration
// rebuilds the accumulator fresh, so a redo cannot double-count.
func (r *rankRun) integrals() (*bornAccum, error) {
	s := r.s
	var acc *bornAccum
	var merged []float64
	err := r.heal(spanBorn, func() error {
		qlo, qhi, alo, ahi := 0, len(s.qLeaves), 0, s.NumAtoms()
		if s.Params.Division == AtomNode {
			alo, ahi = r.share(ahi, r.rank)
		} else {
			qlo, qhi = r.share(qhi, r.rank)
		}
		var err error
		acc, err = reduceLeaves(r, len(s.qLeaves), qlo, qhi, s.newBornAccum,
			s.bornFold(s.qLeaves, alo, ahi, r.ops), (*bornAccum).add)
		if err != nil {
			return err
		}
		// Work-done counters: a redo iteration counts again, because the
		// evaluations really ran again.
		acc.publish(r.rec, &bornPairNames)
		// Flattened integral payload of Fig. 4 Step 3 (order-aware: the
		// Hessian block rides along only at OrderQuadrupole).
		merged, err = r.c.Allreduce(acc.encode(), simmpi.Sum)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	acc.decode(merged)
	return acc, nil
}

// radii is Fig. 4 Steps 4-5: this rank pushes its atom share's integrals
// down to Born radii, and Allgatherv assembles the full vector.
func (r *rankRun) radii(acc *bornAccum, radii []float64) error {
	s := r.s
	var all []float64
	err := r.heal(spanPush, func() error {
		alo, ahi := r.share(s.NumAtoms(), r.rank)
		s.forRange(r.pool, ahi-alo, func(worker int, i0, i1 int) {
			r.ops[worker] += s.PushIntegralsToAtoms(acc, alo+i0, alo+i1, radii)
		})
		// The seed protocol gathers radii positionally in octree item
		// order (every rank present by construction); the fault protocol
		// gathers (atom index, radius) pairs, so a missing rank cannot
		// silently shift the concatenation.
		width := 1
		if r.ft {
			width = 2
		}
		seg := make([]float64, 0, width*(ahi-alo))
		for pos := alo; pos < ahi; pos++ {
			ai := s.TA.Items[pos]
			if r.ft {
				seg = append(seg, float64(ai))
			}
			seg = append(seg, radii[ai])
		}
		var err error
		all, err = r.c.Allgatherv(seg)
		return err
	}, nil)
	if err != nil {
		return err
	}
	if r.ft {
		scatterPairs(radii, all)
		return nil
	}
	for pos, v := range all {
		radii[s.TA.Items[pos]] = v
	}
	return nil
}

// energy is Fig. 4 Steps 6-7: this rank's share of APPROX-Epol, reduced
// across ranks. It returns the raw pair sum (before the −½τC factor).
func (r *rankRun) energy(agg *epolAggregates) (float64, error) {
	s := r.s
	var sum float64
	err := r.heal(spanEpol, func() error {
		lo, hi := r.energyShare(r.rank)
		l0, l1 := s.leafSpan(lo, hi)
		part, err := reduceLeaves(r, len(s.aLeaves), l0, l1, newEpolPart,
			s.epolFold(agg, s.aLeaves, lo, hi, r.ops), (*epolPart).merge)
		if err != nil {
			return err
		}
		part.tally.publish(r.rec, &epolPairNames)
		out, err := r.c.Allreduce([]float64{part.sum}, simmpi.Sum)
		if err != nil {
			return err
		}
		sum = out[0]
		return nil
	}, func(d int) []int32 {
		lo, hi := r.energyShare(d)
		return s.TA.Items[lo:hi]
	})
	return sum, err
}

// leafSpan returns the index range [l0, l1) of the atom leaves that
// overlap item range [lo, hi); s.aLeaves is in item order.
func (s *System) leafSpan(lo, hi int) (int, int) {
	nodes, leaves := s.TA.Nodes, s.aLeaves
	l0 := sort.Search(len(leaves), func(i int) bool { return int(nodes[leaves[i]].End) > lo })
	l1 := sort.Search(len(leaves), func(i int) bool { return int(nodes[leaves[i]].Start) >= hi })
	return l0, max(l0, l1)
}

// scatterPairs writes gathered (atom index, radius) pairs into radii.
func scatterPairs(radii, pairs []float64) {
	for i := 0; i+1 < len(pairs); i += 2 {
		radii[int(pairs[i])] = pairs[i+1]
	}
}

// forRange runs fn over [0, n) either serially (pool nil: worker 0 gets
// everything) or via the rank's work-stealing pool. fn receives the
// worker index and a half-open subrange.
// reduceRange is forRange with an ordered reduction: each subrange folds
// into its own accumulator and merge combines them in ascending-range
// order via sched.ParallelReduce, so a fixed (P, p) layout reduces in a
// fixed order and the result is bitwise identical run to run regardless
// of stealing. The serial (pool == nil) path is a single fold; its
// grouping differs from the parallel tree's, so results across DIFFERENT
// layouts still agree only to rounding (as the cross-layout tests assert).
func reduceRange[T any](pool *sched.Pool, n int, mk func() T, fn func(worker, lo, hi int, acc T), merge func(dst, src T)) T {
	if pool == nil {
		acc := mk()
		if n > 0 {
			fn(0, 0, n, acc)
		}
		return acc
	}
	grain := n/(8*pool.NumWorkers()) + 1
	return sched.ParallelReduce(pool, n, grain, mk,
		func(w *sched.Worker, lo, hi int, acc T) { fn(w.ID(), lo, hi, acc) },
		merge)
}

func (s *System) forRange(pool *sched.Pool, n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if pool == nil {
		fn(0, 0, n)
		return
	}
	grain := n/(8*pool.NumWorkers()) + 1
	pool.ParallelRange(n, grain, func(w *sched.Worker, lo, hi int) {
		fn(w.ID(), lo, hi)
	})
}
