package gb

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"gbpolar/internal/fault"
	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
	"gbpolar/internal/sched"
)

// crashFreePlan builds a deterministic fault schedule without crashes:
// straggle/delay/drop recovery is replayed identically run to run, so
// results and metrics stay bitwise comparable (crash timing races make
// redo counts scheduling-dependent — those are exercised by the span
// tests below, not the bitwise ones).
func crashFreePlan() *fault.Plan {
	return &fault.Plan{Events: []fault.Event{
		{Kind: fault.Straggle, Rank: 1, AtOp: 2, Count: 3, Dur: 40 * time.Microsecond},
		{Kind: fault.Delay, Rank: 0, To: -1, AtOp: 1, Count: 2, Dur: 25 * time.Microsecond},
		{Kind: fault.Drop, Rank: 2, To: -1, AtOp: 3, Count: 1},
	}}
}

// TestRunMatchesLegacyWrappers pins Run(RunSpec) to the exact bits the
// per-layout Run* wrappers it replaced produced on this system: the Epol
// bit pattern and an FNV-64a digest of the Born radii, per layout. A
// change to any of these digests is a change of the computed numbers,
// not a refactor.
func TestRunMatchesLegacyWrappers(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other architectures may fuse multiply-adds")
	}
	s := buildSys(t, 400, DefaultParams())
	pool := sched.New(4)
	defer pool.Close()
	cases := []struct {
		name       string
		spec       RunSpec
		epol, born uint64
	}{
		{"serial", RunSpec{}, 0xc0896e928069db3b, 0xdffe86dd874a48c0},
		{"cilk", RunSpec{Pool: pool}, 0xc0896e928069db3c, 0xb1df41adb4155f1f},
		{"mpi", RunSpec{Processes: 3}, 0xc0896e928069db3c, 0xa10579e26f0cc8b1},
		{"hybrid", RunSpec{Processes: 2, ThreadsPerProcess: 3}, 0xc0896e928069db3c, 0x976ba5eeb8a13f4d},
		{"mpi-faults", RunSpec{Processes: 4, Faults: &FaultConfig{Plan: crashFreePlan()}}, 0xc0896e928069db3e, 0x09e351a4d2409256},
		{"hybrid-faults", RunSpec{Processes: 4, ThreadsPerProcess: 2, Faults: &FaultConfig{Plan: crashFreePlan()}}, 0xc0896e928069db3c, 0xe26425a9cef78b9c},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := mustRun(t, s, tc.spec)
			if got := math.Float64bits(res.Epol); got != tc.epol {
				t.Errorf("Epol bits %#016x (%v), want %#016x", got, res.Epol, tc.epol)
			}
			h := fnv.New64a()
			var buf [8]byte
			for _, r := range res.Born {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r))
				h.Write(buf[:])
			}
			if got := h.Sum64(); got != tc.born {
				t.Errorf("Born digest %#016x, want %#016x", got, tc.born)
			}
		})
	}
}

// TestRunSpecValidation walks the invalid-spec space: every conflicting
// combination must produce an error, not a silently-chosen driver.
func TestRunSpecValidation(t *testing.T) {
	s := buildSys(t, 120, DefaultParams())
	pool := sched.New(2)
	defer pool.Close()
	faulty := &FaultConfig{Plan: crashFreePlan()}

	bad := []struct {
		name string
		spec RunSpec
	}{
		{"negative-processes", RunSpec{Processes: -1}},
		{"negative-threads", RunSpec{ThreadsPerProcess: -2}},
		{"pool-with-processes", RunSpec{Pool: pool, Processes: 2}},
		{"pool-thread-mismatch", RunSpec{Pool: pool, ThreadsPerProcess: 5}},
		{"pool-with-faults", RunSpec{Pool: pool, Faults: faulty}},
		{"threads-without-layout", RunSpec{ThreadsPerProcess: 2}},
		{"faults-without-processes", RunSpec{Faults: faulty}},
	}
	for _, tc := range bad {
		if _, err := s.Run(tc.spec); err == nil {
			t.Errorf("%s: Run accepted an invalid spec", tc.name)
		}
	}

	// An inactive fault config is not an error anywhere.
	if _, err := s.Run(RunSpec{Faults: &FaultConfig{}}); err != nil {
		t.Errorf("inactive FaultConfig on a serial spec: %v", err)
	}
}

// TestObsDoesNotChangeNumbers is the instrumentation-neutrality
// invariant: attaching a recorder must leave every computed number
// bitwise unchanged.
func TestObsDoesNotChangeNumbers(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	specs := []struct {
		name string
		spec RunSpec
	}{
		{"serial", RunSpec{}},
		{"mpi", RunSpec{Processes: 3}},
		{"hybrid", RunSpec{Processes: 2, ThreadsPerProcess: 3}},
		{"faults", RunSpec{Processes: 4, Faults: &FaultConfig{Plan: crashFreePlan()}}},
	}
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := s.Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			withObs := tc.spec
			withObs.Obs = obs.NewRecorder(perf.StartTimer().Elapsed)
			observed, err := s.Run(withObs)
			if err != nil {
				t.Fatal(err)
			}
			bitwiseSame(t, tc.name, plain, observed)
			if len(withObs.Obs.Spans()) == 0 {
				t.Error("recorder captured no spans")
			}
		})
	}
}

// TestSummaryDeterministic runs the same spec twice with fresh recorders
// and demands byte-identical metric summaries — the Summary excludes
// gauges and timings precisely so this holds. It also spot-checks that
// the workload counters the exporters promise are present.
func TestSummaryDeterministic(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	run := func() string {
		rec := obs.NewRecorder(perf.StartTimer().Elapsed)
		rec.SetLabel("summary-test")
		spec := RunSpec{
			Processes: 3, ThreadsPerProcess: 2,
			Faults: &FaultConfig{Plan: crashFreePlan()},
			Obs:    rec,
		}
		if _, err := s.Run(spec); err != nil {
			t.Fatal(err)
		}
		return rec.Summary()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("summaries differ between identical runs:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	for _, want := range []string{
		"counter pairs.born.near ",
		"counter pairs.born.far ",
		"counter pairs.epol.near ",
		"counter pairs.epol.far ",
		"counter comm.allreduce.calls ",
		"counter comm.allgatherv.bytes ",
		// Drop/Delay target point-to-point sends; this driver is pure
		// collectives, so only the straggle events leave a counter.
		"counter fault.straggles ",
		// Counter-side histograms: per-rank pair splits (one observation
		// per rank), per-call collective payloads, and the heal-loop
		// iteration counts (3 phases × 3 ranks, all zero crash-free).
		"hist comm.allreduce.bytes.percall ",
		"hist pairs.born.near.rank count=3 ",
		"hist pairs.epol.far.rank count=3 ",
		"hist redo.iterations count=9 ",
		"span approx-integrals ",
		"span push-integrals-to-atoms ",
		"span octree-build ",
		"span approx-epol ",
		"span rank ",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("summary lacks %q:\n%s", want, a)
		}
	}
}

// checkSpanTree asserts structural well-formedness of a recorder's span
// tree: everything closed, intervals ordered, children contained in
// their parents.
func checkSpanTree(t *testing.T, rec *obs.Recorder) []obs.SpanRecord {
	t.Helper()
	if n := rec.OpenSpans(); n != 0 {
		t.Errorf("%d spans left open", n)
	}
	spans := rec.Spans()
	for i, sp := range spans {
		if sp.End < sp.Start {
			t.Errorf("span %d %q: end %v before start %v", i, sp.Name, sp.End, sp.Start)
		}
		if sp.Parent >= 0 {
			p := spans[sp.Parent]
			if p.Rank != sp.Rank {
				t.Errorf("span %d %q: parent on rank %d, child on rank %d", i, sp.Name, p.Rank, sp.Rank)
			}
			if sp.Start < p.Start || sp.End > p.End {
				t.Errorf("span %d %q [%v,%v] escapes parent %q [%v,%v]",
					i, sp.Name, sp.Start, sp.End, p.Name, p.Start, p.End)
			}
		}
	}
	return spans
}

// TestSpanTreeUnderCrashRecovery drives a crash-and-heal run and asserts
// the span tree stays well-formed through the unwind: the rank root span
// force-closes anything the crash left open, redo iterations appear as
// redo:-prefixed spans, and every surviving rank carries all four
// algorithm phases.
func TestSpanTreeUnderCrashRecovery(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	rec := obs.NewRecorder(perf.StartTimer().Elapsed)
	const P = 4
	res, err := s.Run(RunSpec{
		Processes: P,
		Faults: &FaultConfig{
			Plan:   &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: 1, AtOp: 4}}},
			Policy: Recover,
		},
		Obs: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered {
		t.Fatal("crash plan did not trigger recovery")
	}
	spans := checkSpanTree(t, rec)

	lost := make(map[int]bool)
	for _, r := range res.LostRanks {
		lost[r] = true
	}
	phases := map[int]map[string]bool{}
	redo := false
	for _, sp := range spans {
		if phases[sp.Rank] == nil {
			phases[sp.Rank] = make(map[string]bool)
		}
		phases[sp.Rank][sp.Name] = true
		if strings.HasPrefix(sp.Name, redoPrefix) {
			redo = true
		}
	}
	if !redo {
		t.Error("recovered run recorded no redo: spans")
	}
	for rank := 0; rank < P; rank++ {
		if lost[rank] {
			continue
		}
		for _, phase := range []string{spanBorn, spanPush, spanOctree, spanEpol} {
			if !phases[rank][phase] {
				t.Errorf("surviving rank %d lacks %q span (has %v)", rank, phase, phases[rank])
			}
		}
	}
}

// TestSpanTreeUnderChaos replays seeded chaos schedules and requires the
// span tree to stay well-formed whatever the fault mix does to control
// flow — the structural counterpart of the chaos-smoke deadlock tests.
func TestSpanTreeUnderChaos(t *testing.T) {
	s := buildSys(t, 300, DefaultParams())
	for _, seed := range []int64{3, 11, 42} {
		rec := obs.NewRecorder(perf.StartTimer().Elapsed)
		_, err := s.Run(RunSpec{
			Processes: 4,
			Faults:    &FaultConfig{Plan: fault.Chaos(seed, 4, 6), Policy: Recover},
			Obs:       rec,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if t.Failed() {
			return
		}
		checkSpanTree(t, rec)
	}
}
