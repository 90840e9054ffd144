package gb

import (
	"math"
	"testing"

	"gbpolar/internal/molecule"
	"gbpolar/internal/sched"
	"gbpolar/internal/simmpi"
	"gbpolar/internal/surface"
)

// buildSys prepares a medium test system shared by the driver tests.
func buildSys(t *testing.T, n int, params Params) *System {
	t.Helper()
	m := molecule.Exactly(molecule.Globule("drv", n, 61), n, 61)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(m, surf, params)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustRun runs the spec and fails the test on error.
func mustRun(t testing.TB, s *System, spec RunSpec) *Result {
	t.Helper()
	res, err := s.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSerialRun(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	r := mustRun(t, s, RunSpec{})
	if r.Epol >= 0 {
		t.Errorf("Epol = %v, must be negative", r.Epol)
	}
	if len(r.Born) != 400 {
		t.Fatalf("Born len = %d", len(r.Born))
	}
	if r.TotalOps() == 0 || len(r.PerCoreOps) != 1 {
		t.Errorf("ops = %v", r.PerCoreOps)
	}
	if r.Processes != 1 || r.ThreadsPerProcess != 1 {
		t.Errorf("layout = %d×%d", r.Processes, r.ThreadsPerProcess)
	}
}

func TestCilkMatchesSerial(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	for _, p := range []int{1, 2, 4} {
		pool := sched.New(p)
		r := mustRun(t, s, RunSpec{Pool: pool})
		pool.Close()
		if math.Abs(r.Epol-serial.Epol)/math.Abs(serial.Epol) > 1e-12 {
			t.Errorf("p=%d: Epol %v vs serial %v", p, r.Epol, serial.Epol)
		}
		for i := range r.Born {
			if relDiff(r.Born[i], serial.Born[i]) > 1e-12 {
				t.Fatalf("p=%d: Born[%d] differs", p, i)
			}
		}
		if len(r.PerCoreOps) != p {
			t.Errorf("p=%d: %d core counters", p, len(r.PerCoreOps))
		}
		// Total interaction work is driver-independent up to duplicated
		// traversal bookkeeping on segment boundaries (<1%).
		if relOps := math.Abs(float64(r.TotalOps()-serial.TotalOps())) / float64(serial.TotalOps()); relOps > 0.01 {
			t.Errorf("p=%d: ops %d vs serial %d", p, r.TotalOps(), serial.TotalOps())
		}
	}
}

func TestRunMPIMatchesSerial(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	for _, P := range []int{1, 2, 4, 7} {
		r, err := s.Run(RunSpec{Processes: P})
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		// Node-based division: identical approximation at every P (§IV:
		// "the error is constant for constant parameters"); only
		// floating-point reassociation noise may differ.
		if math.Abs(r.Epol-serial.Epol)/math.Abs(serial.Epol) > 1e-12 {
			t.Errorf("P=%d: Epol %v vs serial %v", P, r.Epol, serial.Epol)
		}
		for i := range r.Born {
			if relDiff(r.Born[i], serial.Born[i]) > 1e-12 {
				t.Fatalf("P=%d: Born[%d] differs: %v vs %v", P, i, r.Born[i], serial.Born[i])
			}
		}
		if len(r.PerCoreOps) != P {
			t.Errorf("P=%d: %d counters", P, len(r.PerCoreOps))
		}
		if P > 1 {
			if r.Traffic.Collectives[simmpi.KindAllreduce].Calls == 0 {
				t.Errorf("P=%d: no allreduce traffic", P)
			}
			if r.Traffic.Collectives[simmpi.KindAllgatherv].Calls == 0 {
				t.Errorf("P=%d: no allgather traffic", P)
			}
		}
	}
}

func TestRunHybridMatchesSerial(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	cases := []struct{ P, p int }{{1, 2}, {2, 2}, {2, 3}, {3, 2}}
	for _, tc := range cases {
		r, err := s.Run(RunSpec{Processes: tc.P, ThreadsPerProcess: tc.p})
		if err != nil {
			t.Fatalf("P=%d p=%d: %v", tc.P, tc.p, err)
		}
		if math.Abs(r.Epol-serial.Epol)/math.Abs(serial.Epol) > 1e-12 {
			t.Errorf("P=%d p=%d: Epol %v vs serial %v", tc.P, tc.p, r.Epol, serial.Epol)
		}
		for i := range r.Born {
			if relDiff(r.Born[i], serial.Born[i]) > 1e-12 {
				t.Fatalf("P=%d p=%d: Born[%d] differs", tc.P, tc.p, i)
			}
		}
		if len(r.PerCoreOps) != tc.P*tc.p {
			t.Errorf("P=%d p=%d: %d counters", tc.P, tc.p, len(r.PerCoreOps))
		}
	}
}

func TestRunMPIWorkBalance(t *testing.T) {
	s := buildSys(t, 2000, DefaultParams())
	r, err := s.Run(RunSpec{Processes: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Static node-based division should be roughly balanced on a uniform
	// globule: no rank more than 3× the lightest.
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, ops := range r.PerCoreOps {
		if ops < lo {
			lo = ops
		}
		if ops > hi {
			hi = ops
		}
	}
	if hi > 3*lo {
		t.Errorf("imbalance: min %d max %d", lo, hi)
	}
}

func TestAtomDivisionEnergyVariesWithP(t *testing.T) {
	params := DefaultParams()
	params.Division = AtomNode
	s := buildSys(t, 600, params)
	// §IV: with atom-based division the error changes with the process
	// count (division boundaries split tree nodes); with node-based
	// division it does not. Also the result must stay close to serial.
	serial := mustRun(t, s, RunSpec{})
	energies := map[float64]bool{}
	for _, P := range []int{1, 2, 5} {
		r, err := s.Run(RunSpec{Processes: P})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(r.Epol-serial.Epol) / math.Abs(serial.Epol); rel > 0.05 {
			t.Errorf("P=%d: atom division energy off by %v", P, rel)
		}
		energies[r.Epol] = true
	}
	if len(energies) < 2 {
		t.Error("atom-based division produced identical energies for all P — expected P-dependence")
	}
}

func TestNodeDivisionEnergyConstantAcrossP(t *testing.T) {
	s := buildSys(t, 600, DefaultParams())
	var first float64
	for i, P := range []int{1, 2, 5, 8} {
		r, err := s.Run(RunSpec{Processes: P})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = r.Epol
			continue
		}
		// The approximation is P-invariant; only summation-order noise
		// (a few ulps) may differ.
		if relDiff(r.Epol, first) > 1e-13 {
			t.Errorf("P=%d: energy %v differs from P=1's %v (node division must be P-invariant)",
				P, r.Epol, first)
		}
	}
}

// For a fixed P the distributed run must be bit-deterministic: rank-ordered
// reductions leave no room for scheduling noise.
func TestRunMPIDeterministicAtFixedP(t *testing.T) {
	s := buildSys(t, 500, DefaultParams())
	a, err := s.Run(RunSpec{Processes: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(RunSpec{Processes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Epol != b.Epol {
		t.Errorf("energy not deterministic: %v vs %v", a.Epol, b.Epol)
	}
	for i := range a.Born {
		if a.Born[i] != b.Born[i] {
			t.Fatalf("Born[%d] not deterministic", i)
		}
	}
}

func TestHybridUsesFewerRanksSameEnergy(t *testing.T) {
	s := buildSys(t, 800, DefaultParams())
	mpi, err := s.Run(RunSpec{Processes: 6})
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := s.Run(RunSpec{Processes: 2, ThreadsPerProcess: 3})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(mpi.Epol, hyb.Epol) > 1e-13 {
		t.Errorf("energies differ: %v vs %v", mpi.Epol, hyb.Epol)
	}
	// Collective payloads are volume-equal (the hybrid advantage is NIC
	// serialization, modeled in perf); the gathered vector is the full
	// radii set either way.
	mb := mpi.Traffic.Collectives[simmpi.KindAllgatherv].Bytes
	hb := hyb.Traffic.Collectives[simmpi.KindAllgatherv].Bytes
	if mb != hb {
		t.Errorf("gathered volumes differ: hybrid %d vs MPI %d", hb, mb)
	}
}

// relDiff is the symmetric relative difference used for cross-layout
// comparisons.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestRunDistributedValidation checks the per-division rank limits: the
// node division needs a leaf per rank, the atom division only an atom.
func TestRunDistributedValidation(t *testing.T) {
	s := buildSys(t, 200, DefaultParams())
	P := len(s.aLeaves) + 1
	if _, err := s.Run(RunSpec{Processes: P}); err == nil {
		t.Errorf("node division accepted P=%d over %d atom leaves", P, len(s.aLeaves))
	}
	params := DefaultParams()
	params.Division = AtomNode
	if _, err := buildSys(t, 200, params).Run(RunSpec{Processes: P}); err != nil {
		t.Errorf("atom division refused P=%d over 200 atoms: %v", P, err)
	}
}
