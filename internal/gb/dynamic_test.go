package gb

import (
	"math"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

func TestRunMPIDynamicMatchesSerial(t *testing.T) {
	s := buildSys(t, 600, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	for _, P := range []int{2, 4, 7} {
		r, err := s.RunMPIDynamic(P)
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		if math.Abs(r.Epol-serial.Epol)/math.Abs(serial.Epol) > 1e-12 {
			t.Errorf("P=%d: Epol %v vs serial %v", P, r.Epol, serial.Epol)
		}
		for i := range r.Born {
			if relDiff(r.Born[i], serial.Born[i]) > 1e-12 {
				t.Fatalf("P=%d: Born[%d] differs", P, i)
			}
		}
		// The coordinator does no leaf work.
		if r.PerCoreOps[0] != 0 {
			t.Errorf("P=%d: coordinator did %d ops", P, r.PerCoreOps[0])
		}
		// All compute ranks worked.
		for rank := 1; rank < P; rank++ {
			if r.PerCoreOps[rank] == 0 {
				t.Errorf("P=%d: rank %d idle", P, rank)
			}
		}
		// The dynamic protocol generates point-to-point traffic.
		if r.Traffic.P2PMessages == 0 {
			t.Errorf("P=%d: no chunk-protocol traffic", P)
		}
	}
}

func TestRunMPIDynamicValidation(t *testing.T) {
	s := buildSys(t, 200, DefaultParams())
	if _, err := s.RunMPIDynamic(1); err == nil {
		t.Error("P=1 accepted (needs a coordinator + a worker)")
	}
}

// On a workload with skewed leaf costs — a dense globule plus a sparse
// distant helix, so some octree leaves interact with far more near
// neighbors than others — dynamic balancing should even out per-rank
// work better than static segments.
func TestRunMPIDynamicBalancesSkew(t *testing.T) {
	dense := molecule.Exactly(molecule.Globule("dense", 2200, 5), 2200, 5)
	sparse := molecule.Helix("sparse", 800, 6).ApplyTransform(
		geom.Translate(geom.V(60, 0, 0)))
	mol := molecule.Merge("skew", dense, sparse)
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(mol, surf, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const computeRanks = 5
	static, err := sys.Run(RunSpec{Processes: computeRanks})
	if err != nil {
		t.Fatal(err)
	}
	// Chunk assignment depends on request arrival order (goroutine
	// scheduling), so take the best of a few dynamic runs: the claim is
	// that on-demand chunks CAN balance a skewed workload better than
	// static segments ever do.
	var dynamic *Result
	for attempt := 0; attempt < 3; attempt++ {
		d, err := sys.RunMPIDynamic(computeRanks + 1) // + coordinator
		if err != nil {
			t.Fatal(err)
		}
		if dynamic == nil || imbalanceOf(d.PerCoreOps) < imbalanceOf(dynamic.PerCoreOps) {
			dynamic = d
		}
	}
	si := imbalanceOf(static.PerCoreOps)
	di := imbalanceOf(dynamic.PerCoreOps)
	if di >= si {
		t.Errorf("dynamic imbalance %.3f not below static %.3f", di, si)
	}
	if math.Abs(dynamic.Epol-static.Epol)/math.Abs(static.Epol) > 1e-12 {
		t.Errorf("energies differ: %v vs %v", dynamic.Epol, static.Epol)
	}
}

// imbalanceOf is max/mean over the non-idle cores.
func imbalanceOf(ops []int64) float64 {
	maxOps, sum := int64(0), int64(0)
	n := 0
	for _, o := range ops {
		if o == 0 {
			continue // coordinator
		}
		sum += o
		n++
		if o > maxOps {
			maxOps = o
		}
	}
	if sum == 0 {
		return 1
	}
	return float64(maxOps) * float64(n) / float64(sum)
}

// R4 integral: octree must match the naive r4 evaluation within the
// ε band, and r4 radii must differ from r6 radii (they are different
// approximations).
func TestOctreeR4MatchesNaiveR4(t *testing.T) {
	params := DefaultParams()
	params.Integral = IntegralR4
	s := buildSys(t, 500, params)
	naive, _ := s.NaiveBornRadiiR4()
	oct, _ := s.BornRadii()
	worst := 0.0
	for i := range naive {
		if rel := math.Abs(oct[i]-naive[i]) / naive[i]; rel > worst {
			worst = rel
		}
	}
	if worst > 0.05 {
		t.Errorf("worst r4 octree error %v", worst)
	}
	// r4 and r6 differ.
	r6params := DefaultParams()
	s6 := buildSys(t, 500, r6params)
	r6, _ := s6.BornRadii()
	same := true
	for i := range oct {
		if math.Abs(oct[i]-r6[i]) > 1e-9 {
			same = false
			break
		}
	}
	if same {
		t.Error("r4 and r6 radii identical — Integral knob inert")
	}
}

// The Coulomb-field r⁴ form is exact for an isolated sphere too, but for
// buried atoms it systematically OVERestimates Born radii — the Grycuk
// deficiency that motivates the paper's r⁶ form. Verify the direction on
// a globule.
func TestR4OverestimatesBuriedRadii(t *testing.T) {
	s := buildSys(t, 800, DefaultParams())
	r6, _ := s.NaiveBornRadiiR6()
	r4, _ := s.NaiveBornRadiiR4()
	higher := 0
	for i := range r6 {
		if r4[i] >= r6[i] {
			higher++
		}
	}
	if higher < len(r6)*3/4 {
		t.Errorf("r4 radii above r6 for only %d/%d atoms", higher, len(r6))
	}
}
