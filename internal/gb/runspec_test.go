package gb

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"gbpolar/internal/fault"
	"gbpolar/internal/geom"
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

// TestRunMatchesLegacyWrappers pins Run(RunSpec) to exact bits per
// layout: the Epol bit pattern and an FNV-64a digest of the Born radii.
// A change to any of these digests is a change of the computed numbers,
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
		{"serial", RunSpec{}, 0xc0896e928069db3a, 0xdffe86dd874a48c0},
		{"cilk", RunSpec{Pool: pool}, 0xc0896e928069db3c, 0xb1df41adb4155f1f},
		{"mpi", RunSpec{Processes: 3}, 0xc0896e928069db3c, 0xa10579e26f0cc8b1},
		{"hybrid", RunSpec{Processes: 2, ThreadsPerProcess: 3}, 0xc0896e928069db3c, 0x976ba5eeb8a13f4d},
		{"mpi-faults", RunSpec{Processes: 4, Faults: &FaultConfig{Plan: crashFreePlan()}}, 0xc0896e928069db3c, 0x09e351a4d2409256},
		{"hybrid-faults", RunSpec{Processes: 4, ThreadsPerProcess: 2, Faults: &FaultConfig{Plan: crashFreePlan()}}, 0xc0896e928069db3e, 0xe26425a9cef78b9c},
		{"segmented", RunSpec{Processes: 3, Scheme: Segmented}, 0xc08981d0a694b827, 0x3506bf0c37e85f00},
		{"segmented-faults", RunSpec{Processes: 4, Scheme: Segmented, Faults: &FaultConfig{Plan: crashFreePlan()}}, 0xc08986d9867f1ce0, 0x9117b466c8d0ed98},
	}
	// The Segmented rows also pin TotalOps and the ring traffic (P2P
	// messages, bytes): its per-rank communication op sequence is part of
	// the scheme, not an implementation detail.
	work := map[string][3]int64{
		"segmented":        {535907, 12, 208608},
		"segmented-faults": {544270, 13, 286936},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := mustRun(t, s, tc.spec)
			if got := math.Float64bits(res.Epol); got != tc.epol {
				t.Errorf("Epol bits %#016x (%v), want %#016x", got, res.Epol, tc.epol)
			}
			if got := bornDigest(res.Born); got != tc.born {
				t.Errorf("Born digest %#016x, want %#016x", got, tc.born)
			}
			if want, ok := work[tc.name]; ok {
				got := [3]int64{res.TotalOps(), res.Traffic.P2PMessages, res.Traffic.P2PBytes}
				if got != want {
					t.Errorf("TotalOps, P2P messages, P2P bytes = %v, want %v", got, want)
				}
			}
		})
	}
}

// bornDigest is the FNV-64a digest of a Born-radii vector's bit patterns.
func bornDigest(radii []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range radii {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestBornCallSitesPinned pins every caller of the Born traversal to
// exact bits: the AtomNode range walk (whose energy phase runs the
// clipped-target epolPass), the monopole and quadrupole far
// fields (serial, distributed and Segmented), the r⁴ integral form, the
// approximate-math kernels, the docking Complex at p = 0/1/2, BornRadii
// and the naive oracles. Like TestRunMatchesLegacyWrappers, a changed
// value here is a change of the computed numbers, not a refactor.
func TestBornCallSitesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other architectures may fuse multiply-adds")
	}
	pool := sched.New(4)
	defer pool.Close()
	sys := func(edit func(*Params)) *System {
		p := DefaultParams()
		edit(&p)
		return buildSys(t, 400, p)
	}
	atomNode := sys(func(p *Params) { p.Division = AtomNode })
	monopole := sys(func(p *Params) { p.Accuracy = Accuracy{EpsBorn: 0.9, Order: OrderMonopole} })
	quad := sys(func(p *Params) { p.Accuracy.Order = OrderQuadrupole })
	r4 := sys(func(p *Params) { p.Integral = IntegralR4 })
	approx := sys(func(p *Params) { p.Math = ApproxMath })
	runs := []struct {
		name       string
		s          *System
		spec       RunSpec
		epol, born uint64
		ops        int64
	}{
		{"atomnode-mpi", atomNode, RunSpec{Processes: 3}, 0xc0896e9417d13c79, 0x80424632bb86c002, 439356},
		{"atomnode-hybrid", atomNode, RunSpec{Processes: 2, ThreadsPerProcess: 2}, 0xc0896e928069db3e, 0xcf86b33ba62eeb7b, 432953},
		{"p0-serial", monopole, RunSpec{}, 0xc0897336b889b63a, 0x042cec832f586fdc, 637468},
		{"p2-serial", quad, RunSpec{}, 0xc089567de86f9eb5, 0xf1740d23c9618d0a, 341473},
		{"p2-mpi", quad, RunSpec{Processes: 3}, 0xc089567de86f9ebb, 0xfc30ee4a39703191, 341515},
		{"p2-segmented", quad, RunSpec{Processes: 3, Scheme: Segmented}, 0xc08976c1b46de4bc, 0xed097fabb16a6852, 435425},
		{"r4-serial", r4, RunSpec{}, 0xc06c5321d1c48418, 0xb90f36709810725f, 429291},
		{"r4-cilk", r4, RunSpec{Pool: pool}, 0xc06c5321d1c4840f, 0xf53982003fa819b7, 429895},
		{"approx-serial", approx, RunSpec{}, 0xc0897ca8ad10768b, 0xdffe86dd874a48c0, 430088},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			res := mustRun(t, tc.s, tc.spec)
			got := [3]uint64{math.Float64bits(res.Epol), bornDigest(res.Born), uint64(res.TotalOps())}
			if want := [3]uint64{tc.epol, tc.born, uint64(tc.ops)}; got != want {
				t.Errorf("Epol bits, Born digest, TotalOps = %#016x, %#016x, %d; want %#016x, %#016x, %d",
					got[0], got[1], got[2], want[0], want[1], want[2])
			}
		})
	}

	// The quadrupole moments built lazily by WithAccuracy match NewSystem's.
	def := buildSys(t, 400, DefaultParams())
	t.Run("p2-spec-accuracy", func(t *testing.T) {
		res := mustRun(t, def, RunSpec{Accuracy: &Accuracy{Order: OrderQuadrupole}})
		if got := bornDigest(res.Born); got != 0xf1740d23c9618d0a {
			t.Errorf("Born digest %#016x, want 0xf1740d23c9618d0a", got)
		}
	})
	t.Run("born-radii", func(t *testing.T) {
		radii, _ := def.BornRadii()
		if got := bornDigest(radii); got != 0xdffe86dd874a48c0 {
			t.Errorf("Born digest %#016x, want the serial run's 0xdffe86dd874a48c0", got)
		}
	})
	t.Run("naive", func(t *testing.T) {
		for _, tc := range []struct {
			name  string
			naive func() ([]float64, int64)
			born  uint64
		}{
			{"r6", def.NaiveBornRadiiR6, 0x4a2c80288e34c787},
			{"r4", def.NaiveBornRadiiR4, 0xe479bd192d140c86},
		} {
			radii, ops := tc.naive()
			if got := bornDigest(radii); got != tc.born || ops != 630400 {
				t.Errorf("%s: Born digest %#016x, ops %d; want %#016x, 630400", tc.name, got, ops, tc.born)
			}
		}
	})

	rec, lig, _ := complexFixture(t, 400, 60)
	pose := geom.Transform{R: geom.RotationAxis(geom.V(1, 2, 3), 0.7), T: geom.V(9, -4, 3)}
	for _, tc := range []struct {
		order                  int
		epol, recBorn, ligBorn uint64
		ops                    int64
	}{
		{OrderMonopole, 0xc097275c90212783, 0x70298268517e2167, 0x07dd23d729b7036c, 384899},
		{OrderDipole, 0xc097224cfb885bdc, 0xedf4826e48470bc7, 0x749911dd7ba7a933, 252766},
		{OrderQuadrupole, 0xc09736684a44822b, 0xeabe1e9987445731, 0x799a82355db8ccec, 211159},
	} {
		t.Run(fmt.Sprintf("complex-p%d", tc.order), func(t *testing.T) {
			acc := DefaultAccuracy()
			acc.Order = tc.order
			rw, err := rec.WithAccuracy(acc)
			if err != nil {
				t.Fatal(err)
			}
			lw, err := lig.WithAccuracy(acc)
			if err != nil {
				t.Fatal(err)
			}
			cx, err := NewComplex(rw, lw)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cx.Epol(pose)
			if err != nil {
				t.Fatal(err)
			}
			got := [4]uint64{math.Float64bits(res.Epol), bornDigest(res.RecBorn), bornDigest(res.LigBorn), uint64(res.Ops)}
			if want := [4]uint64{tc.epol, tc.recBorn, tc.ligBorn, uint64(tc.ops)}; got != want {
				t.Errorf("Epol bits, RecBorn, LigBorn, Ops = %#016x, %#016x, %#016x, %d; want %#016x, %#016x, %#016x, %d",
					got[0], got[1], got[2], got[3], want[0], want[1], want[2], want[3])
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
		{"unknown-scheme", RunSpec{Processes: 2, Scheme: Segmented + 1}},
		{"dynamic-faults", RunSpec{Processes: 3, Scheme: Dynamic, Faults: faulty}},
	}
	for _, sc := range []Scheme{Dynamic, Segmented} {
		bad = append(bad, []struct {
			name string
			spec RunSpec
		}{
			{sc.String() + "-pool", RunSpec{Scheme: sc, Pool: pool}},
			{sc.String() + "-threads", RunSpec{Processes: 2, ThreadsPerProcess: 2, Scheme: sc}},
			{sc.String() + "-checkpoint", RunSpec{Processes: 2, Scheme: sc, Checkpoint: &memSink{}}},
			{sc.String() + "-resume", RunSpec{Processes: 2, Scheme: sc, Resume: &Checkpoint{}}},
		}...)
	}
	for _, tc := range bad {
		if _, err := s.Run(tc.spec); err == nil {
			t.Errorf("%s: Run accepted an invalid spec", tc.name)
		}
	}
	// Both non-default schemes run the node division only.
	params := DefaultParams()
	params.Division = AtomNode
	atomSys := buildSys(t, 120, params)
	for _, sc := range []Scheme{Dynamic, Segmented} {
		if _, err := atomSys.Run(RunSpec{Processes: 2, Scheme: sc}); err == nil {
			t.Errorf("%v-atom-division: Run accepted an invalid spec", sc)
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
		{"segmented", RunSpec{Processes: 3, Scheme: Segmented}},
		{"segmented-faults", RunSpec{Processes: 4, Scheme: Segmented, Faults: &FaultConfig{Plan: crashFreePlan()}}},
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
	// Dynamic chunk grants follow request arrival order, so two runs are
	// not bitwise comparable: check the instrumentation is there and the
	// answer stays serial's.
	t.Run("dynamic", func(t *testing.T) {
		serial := mustRun(t, s, RunSpec{})
		rec := obs.NewRecorder(perf.StartTimer().Elapsed)
		const P = 3
		res := mustRun(t, s, RunSpec{Processes: P, Scheme: Dynamic, Obs: rec})
		if rel := relDiff(res.Epol, serial.Epol); rel > 1e-12 {
			t.Errorf("Epol %v vs serial %v (rel %v)", res.Epol, serial.Epol, rel)
		}
		phases := map[int]map[string]bool{}
		for _, sp := range checkSpanTree(t, rec) {
			if phases[sp.Rank] == nil {
				phases[sp.Rank] = make(map[string]bool)
			}
			phases[sp.Rank][sp.Name] = true
		}
		for rank := 0; rank < P; rank++ {
			for _, name := range []string{spanRank, spanBorn, spanPush, spanOctree, spanEpol} {
				if !phases[rank][name] {
					t.Errorf("rank %d lacks a %q span (has %v)", rank, name, phases[rank])
				}
			}
		}
	})
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

// TestPairCountersSameAcrossSchemes checks that every distributed scheme
// publishes the same pair-split metrics: the four pairs.* work-done
// counters and their four ".rank" histograms.
func TestPairCountersSameAcrossSchemes(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	names := func(scheme Scheme) []string {
		rec := obs.NewRecorder(perf.StartTimer().Elapsed)
		mustRun(t, s, RunSpec{Processes: 3, Scheme: scheme, Obs: rec})
		var out []string
		for _, line := range strings.Split(rec.Summary(), "\n") {
			f := strings.Fields(line)
			if len(f) >= 2 && (f[0] == "counter" || f[0] == "hist") && strings.HasPrefix(f[1], "pairs.") {
				out = append(out, f[0]+" "+f[1])
			}
		}
		slices.Sort(out)
		return out
	}
	want := names(Replicated)
	if len(want) != 8 {
		t.Fatalf("Replicated publishes %d pair metrics, want 8: %v", len(want), want)
	}
	for _, sc := range []Scheme{Dynamic, Segmented} {
		if got := names(sc); !slices.Equal(got, want) {
			t.Errorf("%v publishes %v, Replicated %v", sc, got, want)
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
