package gb

import (
	"math"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// newTestSystem builds a System for a molecule with the given surface and
// params, failing the test on error.
func newTestSystem(t *testing.T, m *molecule.Molecule, scfg surface.Config, p Params) *System {
	t.Helper()
	surf, err := surface.Build(m, scfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(m, surf, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ion(r float64) *molecule.Molecule {
	return &molecule.Molecule{Name: "ion", Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Radius: r, Charge: 1},
	}}
}

// Validation anchor (DESIGN.md §5): the r⁶ Born radius of an isolated
// sphere is exact.
func TestNaiveBornRadiusIsolatedSphere(t *testing.T) {
	for _, r := range []float64{1.0, 1.5, 2.3} {
		s := newTestSystem(t, ion(r), surface.Config{IcoLevel: 1}, DefaultParams())
		radii, ops := s.NaiveBornRadiiR6()
		if math.Abs(radii[0]-r)/r > 1e-10 {
			t.Errorf("r=%v: Born radius = %v", r, radii[0])
		}
		if ops != int64(s.NumQPoints()) {
			t.Errorf("ops = %d, want %d", ops, s.NumQPoints())
		}
	}
}

func TestNaiveBornRadiusR4IsolatedSphere(t *testing.T) {
	s := newTestSystem(t, ion(1.8), surface.Config{IcoLevel: 1}, DefaultParams())
	radii, _ := s.NaiveBornRadiiR4()
	if math.Abs(radii[0]-1.8)/1.8 > 1e-10 {
		t.Errorf("r4 Born radius = %v", radii[0])
	}
}

// Two distant atoms: each Born radius barely exceeds its intrinsic radius
// (the far sphere's flux is tiny), and the octree result matches naïve.
func TestBornRadiiTwoDistantAtoms(t *testing.T) {
	m := &molecule.Molecule{Name: "pair", Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Radius: 1.5, Charge: 1},
		{Pos: geom.V(40, 0, 0), Radius: 1.5, Charge: -1},
	}}
	s := newTestSystem(t, m, surface.Config{IcoLevel: 2}, DefaultParams())
	naive, _ := s.NaiveBornRadiiR6()
	for i, r := range naive {
		if r < 1.5 || r > 1.6 {
			t.Errorf("atom %d: Born radius %v, want ≈1.5", i, r)
		}
	}
}

// Octree Born radii converge to the naïve result as ε → 0 and stay within
// a few percent at the paper's working ε = 0.9.
func TestOctreeBornRadiiMatchesNaive(t *testing.T) {
	m := molecule.Globule("g", 400, 31)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	sys, err := NewSystem(m, surf, params)
	if err != nil {
		t.Fatal(err)
	}
	naive, naiveOps := sys.NaiveBornRadiiR6()

	cases := []struct {
		eps    float64
		maxRel float64
	}{
		{0.001, 1e-6},
		{0.1, 0.01},
		{0.9, 0.08},
	}
	prevOps := int64(math.MaxInt64)
	for _, tc := range cases {
		params.Accuracy.EpsBorn = tc.eps
		sys2, err := NewSystem(m, surf, params)
		if err != nil {
			t.Fatal(err)
		}
		oct, ops := sys2.BornRadii()
		worst := 0.0
		for i := range naive {
			rel := math.Abs(oct[i]-naive[i]) / naive[i]
			if rel > worst {
				worst = rel
			}
		}
		if worst > tc.maxRel {
			t.Errorf("eps=%v: worst relative error %v > %v", tc.eps, worst, tc.maxRel)
		}
		// Work shrinks as ε grows. (At tiny ε on a small molecule the
		// octree does the naive work plus traversal overhead, so only
		// non-increase is required until the far field engages.)
		if ops > prevOps {
			t.Errorf("eps=%v: ops %d increased (prev %d)", tc.eps, ops, prevOps)
		}
		prevOps = ops
	}
	// At the paper's working ε = 0.9 the octree must beat naive clearly.
	params.Accuracy.EpsBorn = 0.9
	sys3, err := NewSystem(m, surf, params)
	if err != nil {
		t.Fatal(err)
	}
	_, ops09 := sys3.BornRadii()
	if ops09*2 >= naiveOps {
		t.Errorf("eps=0.9: octree ops %d not < naive/2 (%d)", ops09, naiveOps/2)
	}
}

// The segmented PUSH-INTEGRALS pass must produce exactly the same radii as
// a single full pass, regardless of how the atoms are segmented.
func TestPushIntegralsSegmentsEquivalent(t *testing.T) {
	m := molecule.Globule("g", 300, 33)
	s := newTestSystem(t, m, surface.DefaultConfig(), DefaultParams())
	acc := s.newBornAccum()
	for _, q := range s.qLeaves {
		s.ApproxIntegrals(s.TA.Root(), q, acc)
	}
	full := make([]float64, s.NumAtoms())
	s.PushIntegralsToAtoms(acc, 0, s.NumAtoms(), full)

	for _, nseg := range []int{2, 3, 7} {
		seg := make([]float64, s.NumAtoms())
		for i := 0; i < nseg; i++ {
			lo, hi := segment(s.NumAtoms(), nseg, i)
			s.PushIntegralsToAtoms(acc, lo, hi, seg)
		}
		for i := range full {
			if seg[i] != full[i] {
				t.Fatalf("nseg=%d: atom %d differs: %v vs %v", nseg, i, seg[i], full[i])
			}
		}
	}
}

func TestBornRadiusClamps(t *testing.T) {
	// Non-positive integral → bulk cap.
	if got := bornRadiusFromIntegral(-1, 1.5); got != maxBornRadius {
		t.Errorf("negative integral: %v", got)
	}
	if got := bornRadiusFromIntegral(0, 1.5); got != maxBornRadius {
		t.Errorf("zero integral: %v", got)
	}
	// Intrinsic floor.
	huge := 4 * math.Pi / 1e-3 // R ≈ 0.1 < intrinsic... actually large s → small R
	if got := bornRadiusFromIntegral(huge*1e6, 1.5); got != 1.5 {
		t.Errorf("intrinsic floor: %v", got)
	}
	if got := bornRadiusFromIntegralR4(-1, 1); got != maxBornRadius {
		t.Errorf("r4 negative integral: %v", got)
	}
}

func TestFarCriterion(t *testing.T) {
	beta := farBeta(0.9)
	// Touching balls are never far.
	if bornFar(2.0, 1, 1, beta) {
		t.Error("touching balls judged far")
	}
	// Hugely separated balls are far.
	if !bornFar(1000, 1, 1, beta) {
		t.Error("distant balls not far")
	}
	// ε → 0 ⇒ β → 1 ⇒ nothing is far (exact algorithm).
	if bornFar(1000, 1, 1, farBeta(1e-12)) {
		t.Error("eps→0 still approximates")
	}
	// The threshold distance matches the §II closed form
	// (r_A+r_Q)(β+1)/(β−1).
	s := 2.0
	thresh := s * (beta + 1) / (beta - 1)
	if bornFar(thresh*0.999, 1, 1, beta) {
		t.Error("just inside threshold judged far")
	}
	if !bornFar(thresh*1.001, 1, 1, beta) {
		t.Error("just outside threshold not far")
	}
}

func TestNewSystemValidation(t *testing.T) {
	m := ion(1)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(m, surf, Params{}); err == nil {
		t.Error("zero params accepted")
	}
	empty := &molecule.Molecule{Name: "empty"}
	if _, err := NewSystem(empty, surf, DefaultParams()); err == nil {
		t.Error("empty molecule accepted")
	}
	if _, err := NewSystem(m, &surface.Surface{}, DefaultParams()); err == nil {
		t.Error("empty surface accepted")
	}
	bad := DefaultParams()
	bad.Accuracy.EpsBorn = -1
	if _, err := NewSystem(m, surf, bad); err == nil {
		t.Error("negative eps accepted")
	}
}

func TestSystemDataBytesScales(t *testing.T) {
	s1 := newTestSystem(t, molecule.Globule("a", 200, 1), surface.DefaultConfig(), DefaultParams())
	s2 := newTestSystem(t, molecule.Globule("b", 2000, 2), surface.DefaultConfig(), DefaultParams())
	// Atoms scale 10×; quadrature points only ~n^(2/3) (surface), so the
	// working set grows ≥4×.
	if s2.DataBytes() < 4*s1.DataBytes() {
		t.Errorf("DataBytes not scaling: %d vs %d", s1.DataBytes(), s2.DataBytes())
	}
}

func TestSegment(t *testing.T) {
	covered := 0
	for i := 0; i < 7; i++ {
		lo, hi := segment(100, 7, i)
		covered += hi - lo
		if lo > hi {
			t.Fatalf("segment %d inverted", i)
		}
	}
	if covered != 100 {
		t.Fatalf("segments cover %d of 100", covered)
	}
	lo, hi := segment(3, 8, 7)
	if hi != 3 || lo > hi {
		t.Errorf("last sparse segment = [%d,%d)", lo, hi)
	}
}

func TestAccessorsAndStrings(t *testing.T) {
	s := newTestSystem(t, ion(1.5), surface.Config{IcoLevel: 1}, DefaultParams())
	if len(s.QLeaves()) == 0 || len(s.ALeaves()) == 0 {
		t.Error("leaf accessors empty")
	}
	if NodeNode.String() != "node-node" || AtomNode.String() != "atom-node" {
		t.Errorf("Division strings: %v %v", NodeNode, AtomNode)
	}
	if Division(99).String() == "" {
		t.Error("unknown division has empty string")
	}
	if IntegralR6.String() != "r6" || IntegralR4.String() != "r4" {
		t.Errorf("Integral strings: %v %v", IntegralR6, IntegralR4)
	}
	if PairTerm(1, 0, 4) != 0.5 { // q²/f(0) = 1/sqrt(4)
		t.Errorf("PairTerm = %v", PairTerm(1, 0, 4))
	}
}
