package gb

import (
	"math"
	"testing"
	"time"

	"gbpolar/internal/fault"
	"gbpolar/internal/obs"
)

// Op-count map of runDistributed's fault-tolerant path (P ranks, no
// faults firing): op0 initial agree; integral phase: op1 Tick, op2
// Allreduce, op3 agree; radii phase: op4 Tick, op5 Allgatherv, op6
// agree; energy phase: op7 Tick, op8 Allreduce, op9 agree. The chaos
// tests below target crashes by these indices.

func TestFaultsEmptyPlanBitwiseIdentical(t *testing.T) {
	s := buildSys(t, 300, DefaultParams())
	base, err := s.Run(RunSpec{Processes: 3})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := s.Run(RunSpec{Processes: 3, Faults: &FaultConfig{Plan: &fault.Plan{}}})
	if err != nil {
		t.Fatal(err)
	}
	if ft.Epol != base.Epol {
		t.Errorf("empty plan changed Epol: %v vs %v", ft.Epol, base.Epol)
	}
	for i := range base.Born {
		if ft.Born[i] != base.Born[i] {
			t.Fatalf("empty plan changed Born[%d]", i)
		}
	}
	if ft.Degraded || ft.Recovered || len(ft.LostRanks) != 0 {
		t.Errorf("empty plan set fault flags: %+v", ft)
	}

	hybBase, err := s.Run(RunSpec{Processes: 2, ThreadsPerProcess: 2})
	if err != nil {
		t.Fatal(err)
	}
	hybFT, err := s.Run(RunSpec{Processes: 2, ThreadsPerProcess: 2})
	if err != nil {
		t.Fatal(err)
	}
	if hybFT.Epol != hybBase.Epol {
		t.Errorf("nil config changed hybrid Epol: %v vs %v", hybFT.Epol, hybBase.Epol)
	}
}

func TestCrashRecoverMatchesSerial(t *testing.T) {
	// Rank 1 dies entering the radii phase (op 4). The survivors must
	// detect the loss, re-partition, redo the phase, and still produce the
	// full-accuracy answer — node division is P-invariant, so the healed
	// energy matches serial to reassociation noise.
	s := buildSys(t, 400, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: 1, AtOp: 4}}}
	r, err := s.Run(RunSpec{Processes: 4, Faults: &FaultConfig{Plan: plan, Policy: Recover}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.LostRanks) != 1 || r.LostRanks[0] != 1 {
		t.Errorf("LostRanks = %v, want [1]", r.LostRanks)
	}
	if !r.Recovered || r.Degraded {
		t.Errorf("flags: Recovered=%v Degraded=%v, want recovered and not degraded", r.Recovered, r.Degraded)
	}
	if rel := relDiff(r.Epol, serial.Epol); rel > 1e-10 {
		t.Errorf("healed Epol %v vs serial %v (rel %v)", r.Epol, serial.Epol, rel)
	}
	for i := range r.Born {
		if relDiff(r.Born[i], serial.Born[i]) > 1e-10 {
			t.Fatalf("healed Born[%d] differs: %v vs %v", i, r.Born[i], serial.Born[i])
		}
	}
}

func TestCrashDegradeHonestBound(t *testing.T) {
	// Rank 2 dies entering the energy phase (op 7): its share's V-side
	// terms are missing from the accepted partial sum. Under Degrade the
	// result must carry an ErrorBound that really contains the deficit.
	s := buildSys(t, 400, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: 2, AtOp: 7}}}
	r, err := s.Run(RunSpec{Processes: 4, Faults: &FaultConfig{Plan: plan, Policy: Degrade}})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded {
		t.Fatal("result not marked Degraded")
	}
	if r.ErrorBound <= 0 {
		t.Fatalf("ErrorBound = %v, want positive", r.ErrorBound)
	}
	miss := math.Abs(r.Epol - serial.Epol)
	if miss > r.ErrorBound {
		t.Errorf("|Epol−serial| = %v exceeds ErrorBound %v", miss, r.ErrorBound)
	}
	if miss == 0 {
		t.Error("degraded energy equals serial — the crash injected nothing")
	}
	if len(r.LostRanks) != 1 || r.LostRanks[0] != 2 {
		t.Errorf("LostRanks = %v, want [2]", r.LostRanks)
	}
}

func TestStragglerShedsWork(t *testing.T) {
	// A straggling rank (known from the plan-derived health view) carries
	// half a share; its siblings absorb the rest. Node division keeps leaf
	// boundaries whole, so the answer is unchanged.
	s := buildSys(t, 600, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.Straggle, Rank: 1, AtOp: 0, Count: 10, Dur: 200 * time.Microsecond},
	}}
	r, err := s.Run(RunSpec{Processes: 4, Faults: &FaultConfig{Plan: plan}})
	if err != nil {
		t.Fatal(err)
	}
	if rel := relDiff(r.Epol, serial.Epol); rel > 1e-10 {
		t.Errorf("Epol %v vs serial %v (rel %v)", r.Epol, serial.Epol, rel)
	}
	if !r.Recovered {
		t.Error("straggler shedding not reported as Recovered")
	}
	if r.Traffic.StragglerNanos == 0 {
		t.Error("no straggler time recorded in traffic stats")
	}
	if r.PerCoreOps[1] >= r.PerCoreOps[0] {
		t.Errorf("straggler rank 1 did %d ops, healthy rank 0 did %d — no shedding",
			r.PerCoreOps[1], r.PerCoreOps[0])
	}
}

func TestHybridCrashRecover(t *testing.T) {
	// The fault protocol must compose with per-rank work-stealing pools
	// (crash unwinding releases the pool via defer, survivors heal).
	s := buildSys(t, 400, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: 1, AtOp: 4}}}
	r, err := s.Run(RunSpec{Processes: 3, ThreadsPerProcess: 2, Faults: &FaultConfig{Plan: plan}})
	if err != nil {
		t.Fatal(err)
	}
	if rel := relDiff(r.Epol, serial.Epol); rel > 1e-10 {
		t.Errorf("Epol %v vs serial %v (rel %v)", r.Epol, serial.Epol, rel)
	}
	if !r.Recovered || len(r.LostRanks) != 1 {
		t.Errorf("Recovered=%v LostRanks=%v", r.Recovered, r.LostRanks)
	}
}

func TestChaosRecoverNeverDeadlocksOrLies(t *testing.T) {
	// The acceptance sweep: seeded chaos schedules (crashes, stragglers,
	// drops — the latter inert here, the shared-data driver is collective-
	// only) against the Recover policy. Every run must terminate, and a
	// completed non-degraded recovery is a full-accuracy answer.
	s := buildSys(t, 300, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	for seed := int64(1); seed <= 6; seed++ {
		plan := fault.Chaos(seed, 5, 8)
		r, err := s.Run(RunSpec{Processes: 5, Faults: &FaultConfig{Plan: plan, Policy: Recover}})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		if r.Degraded {
			t.Errorf("seed %d: Recover policy produced a degraded result", seed)
		}
		if rel := relDiff(r.Epol, serial.Epol); rel > 1e-10 {
			t.Errorf("seed %d: Epol %v vs serial %v (rel %v, lost %v)",
				seed, r.Epol, serial.Epol, rel, r.LostRanks)
		}
	}
}

func TestLayoutValidation(t *testing.T) {
	s := buildSys(t, 200, DefaultParams())
	for _, P := range []int{-3, 201} {
		if _, err := s.Run(RunSpec{Processes: P}); err == nil {
			t.Errorf("Processes=%d accepted", P)
		}
	}
	if _, err := s.Run(RunSpec{Processes: 2, ThreadsPerProcess: -1}); err == nil {
		t.Error("Processes=2, ThreadsPerProcess=-1 accepted")
	}
	if _, err := s.Run(RunSpec{Processes: 0, ThreadsPerProcess: 2}); err == nil {
		t.Error("Processes=0, ThreadsPerProcess=2 accepted")
	}
	if _, err := s.RunMPIDistributedData(0); err == nil {
		t.Error("RunMPIDistributedData(0) accepted")
	}
	if _, err := s.RunMPIDistributedData(500); err == nil {
		t.Error("RunMPIDistributedData(500) accepted (more ranks than atoms)")
	}
	if _, err := s.RunMPIDynamic(1); err == nil {
		t.Error("RunMPIDynamic(1) accepted")
	}
}

// ---- distributed-data driver under faults ------------------------------

// Op map of runDistData's fault-tolerant path (P = 3): op0 initial
// agree; born ring round 1: op1 send, op2 recv; round 2: op3 send, op4
// recv; radii heal: op5 Tick, op6 Allgatherv, op7 agree; energy heal:
// op8 Tick, op9 Allreduce, op10 agree. (A retried send shifts the
// subsequent indices on that rank.)

func TestDistDataEmptyPlanBitwiseIdentical(t *testing.T) {
	s := buildSys(t, 300, DefaultParams())
	base, err := s.RunMPIDistributedData(3)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := s.RunMPIDistributedDataWithFaults(3, &FaultConfig{Plan: &fault.Plan{}})
	if err != nil {
		t.Fatal(err)
	}
	if ft.Epol != base.Epol {
		t.Errorf("empty plan changed Epol: %v vs %v", ft.Epol, base.Epol)
	}
	for i := range base.Born {
		if ft.Born[i] != base.Born[i] {
			t.Fatalf("empty plan changed Born[%d]", i)
		}
	}
}

func TestDistDataDropRetryRecovers(t *testing.T) {
	// Rank 0's first ring send (op 1, to rank 1) is dropped twice; the
	// bounded-retry loop must re-send and the run completes at full
	// accuracy, with the recovery cost visible in the traffic stats.
	s := buildSys(t, 300, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.Drop, Rank: 0, To: 1, AtOp: 1, Count: 2},
	}}
	r, err := s.RunMPIDistributedDataWithFaults(3, &FaultConfig{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if r.Traffic.Drops != 2 || r.Traffic.Retries != 2 {
		t.Errorf("drops=%d retries=%d, want 2 and 2", r.Traffic.Drops, r.Traffic.Retries)
	}
	if r.Traffic.BackoffNanos == 0 {
		t.Error("no backoff recorded for the retries")
	}
	if rel := relDiff(r.Epol, serial.Epol); rel > 0.02 {
		t.Errorf("Epol %v vs serial %v (rel %v)", r.Epol, serial.Epol, rel)
	}
	if r.Degraded {
		t.Error("drop recovery must not degrade the result")
	}
}

func TestDistDataCrashAdoption(t *testing.T) {
	// Rank 1 dies immediately. Its quadrature bundle must be rebuilt
	// locally by the ring peers, and its atom segment's radii recomputed by
	// an adopting survivor — the Born vector comes back complete and the
	// energy within the driver's approximation band of serial.
	s := buildSys(t, 300, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: 1, AtOp: 0}}}
	r, err := s.RunMPIDistributedDataWithFaults(3, &FaultConfig{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.LostRanks) != 1 || r.LostRanks[0] != 1 {
		t.Errorf("LostRanks = %v, want [1]", r.LostRanks)
	}
	if !r.Recovered || r.Degraded {
		t.Errorf("flags: Recovered=%v Degraded=%v", r.Recovered, r.Degraded)
	}
	for i, b := range r.Born {
		if b <= 0 {
			t.Fatalf("Born[%d] = %v — adoption left a hole in the radii vector", i, b)
		}
		if relDiff(b, serial.Born[i]) > 0.02 {
			t.Fatalf("Born[%d] = %v vs serial %v", i, b, serial.Born[i])
		}
	}
	if rel := relDiff(r.Epol, serial.Epol); rel > 0.02 {
		t.Errorf("Epol %v vs serial %v (rel %v)", r.Epol, serial.Epol, rel)
	}
}

func TestDistDataDegradeHonestBound(t *testing.T) {
	// Rank 2 dies entering the energy phase. The reference for the bound
	// check is the SAME fault-tolerant code path with a numerically inert
	// plan (one delayed send), so approximation differences between the
	// protocols cannot masquerade as bound violations.
	s := buildSys(t, 300, DefaultParams())
	inert := &fault.Plan{Events: []fault.Event{
		{Kind: fault.Delay, Rank: 0, To: 1, AtOp: 1, Count: 1, Dur: time.Millisecond},
	}}
	ref, err := s.RunMPIDistributedDataWithFaults(3, &FaultConfig{Plan: inert})
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: 2, AtOp: 8}}}
	r, err := s.RunMPIDistributedDataWithFaults(3, &FaultConfig{Plan: plan, Policy: Degrade})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded || r.ErrorBound <= 0 {
		t.Fatalf("Degraded=%v ErrorBound=%v", r.Degraded, r.ErrorBound)
	}
	miss := math.Abs(r.Epol - ref.Epol)
	if miss > r.ErrorBound {
		t.Errorf("|Epol−ref| = %v exceeds ErrorBound %v", miss, r.ErrorBound)
	}
	if miss == 0 {
		t.Error("degraded energy equals reference — the crash injected nothing")
	}
}

func TestDistDataChaosNeverDeadlocks(t *testing.T) {
	s := buildSys(t, 200, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	for seed := int64(1); seed <= 4; seed++ {
		plan := fault.Chaos(seed, 4, 6)
		r, err := s.RunMPIDistributedDataWithFaults(4, &FaultConfig{Plan: plan, Policy: Recover})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		if r.Degraded {
			t.Errorf("seed %d: Recover policy degraded", seed)
		}
		if rel := relDiff(r.Epol, serial.Epol); rel > 0.02 {
			t.Errorf("seed %d: Epol %v vs serial %v (rel %v, lost %v)",
				seed, r.Epol, serial.Epol, rel, r.LostRanks)
		}
	}
}

func TestChaosCorruptionNeverSilent(t *testing.T) {
	// The corruption acceptance matrix: seeded chaos schedules mixing
	// crashes, stragglers, drops, and payload corruption, across two world
	// widths. Every run must terminate. A run that completes cleanly (no
	// error, not degraded) must be full accuracy: an injected corruption is
	// always detected and either healed by retransmit or escalated as a
	// typed error — never absorbed into the answer.
	s := buildSys(t, 300, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	var injected, detected int64
	for _, P := range []int{3, 5} {
		for seed := int64(1); seed <= 6; seed++ {
			plan := fault.ChaosWithCorruption(seed, P, 10)
			rec := obs.NewRecorder(nil)
			r, err := s.Run(RunSpec{Processes: P, Faults: &FaultConfig{Plan: plan, Policy: Recover}, Obs: rec})
			c := rec.Counters()
			injected += c["fault.corruptions"]
			detected += c["fault.corruptions.detected"]
			if err != nil {
				// An escalated failure is acceptable: the run refused to
				// answer rather than answering wrong.
				continue
			}
			if r.Degraded {
				t.Errorf("P=%d seed %d: Recover policy produced a degraded result", P, seed)
				continue
			}
			if rel := relDiff(r.Epol, serial.Epol); rel > 1e-10 {
				t.Errorf("P=%d seed %d: silently wrong Epol %v vs serial %v (rel %v, lost %v)",
					P, seed, r.Epol, serial.Epol, rel, r.LostRanks)
			}
		}
	}
	if injected == 0 {
		t.Error("matrix injected no corruption — the chaos schedules are too small to exercise the checksums")
	}
	if detected == 0 {
		t.Error("corruption was injected but never detected")
	}
}
