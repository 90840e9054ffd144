package gb

import (
	"math"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// Analytic Born anchor: a single ion of charge q and radius a has
// Epol = −(τ/2)·κ·q²/a.
func TestNaiveEpolBornIon(t *testing.T) {
	const a = 2.0
	s := newTestSystem(t, ion(a), surface.Config{IcoLevel: 1}, DefaultParams())
	radii, _ := s.NaiveBornRadiiR6()
	e, ops := s.NaiveEpol(radii)
	want := -0.5 * Tau(80) * CoulombKcal * 1 / a
	if math.Abs(e-want)/math.Abs(want) > 1e-9 {
		t.Errorf("Epol = %v, want %v", e, want)
	}
	if ops != 1 {
		t.Errorf("ops = %d", ops)
	}
	if e >= 0 {
		t.Error("polarization energy must be negative")
	}
}

// Two distant unit charges: Epol ≈ self terms + cross term −τκ q1q2/r.
func TestNaiveEpolTwoIons(t *testing.T) {
	m := &molecule.Molecule{Name: "two", Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Radius: 2, Charge: 1},
		{Pos: geom.V(50, 0, 0), Radius: 2, Charge: 1},
	}}
	s := newTestSystem(t, m, surface.Config{IcoLevel: 2}, DefaultParams())
	radii, _ := s.NaiveBornRadiiR6()
	e, _ := s.NaiveEpol(radii)
	// At r = 50 >> R the GB function f → r.
	want := -0.5 * Tau(80) * CoulombKcal * (1/radii[0] + 1/radii[1] + 2.0/50)
	if math.Abs(e-want)/math.Abs(want) > 1e-3 {
		t.Errorf("Epol = %v, want ≈ %v", e, want)
	}
}

// The octree Epol converges to naive as ε → 0 and stays within ~1.5% at
// the paper's working ε (Fig. 10's error band).
func TestOctreeEpolMatchesNaive(t *testing.T) {
	m := molecule.Globule("g", 600, 41)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	sys, err := NewSystem(m, surf, params)
	if err != nil {
		t.Fatal(err)
	}
	radii, _ := sys.NaiveBornRadiiR6()
	naive, naiveOps := sys.NaiveEpol(radii)

	cases := []struct {
		eps    float64
		maxRel float64
	}{
		{0.01, 1e-3},
		{0.3, 0.02},
		{0.9, 0.04},
	}
	prevRel := 0.0
	for _, tc := range cases {
		params.Accuracy.EpsEpol = tc.eps
		sys2, err := NewSystem(m, surf, params)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := sys2.Epol(radii)
		rel := math.Abs(e-naive) / math.Abs(naive)
		if rel > tc.maxRel {
			t.Errorf("eps=%v: relative error %v > %v (octree %v vs naive %v)",
				tc.eps, rel, tc.maxRel, e, naive)
		}
		if rel < prevRel {
			t.Errorf("eps=%v: error %v decreased from %v — speed/accuracy knob broken", tc.eps, rel, prevRel)
		}
		prevRel = rel
	}
	_ = naiveOps
}

// The octree's work advantage over naive O(M²) needs a molecule large
// enough for the far field to engage (§V-C: advantages grow with size).
func TestOctreeEpolWorkAdvantage(t *testing.T) {
	m := molecule.Globule("g", 4000, 49)
	s := newTestSystem(t, m, surface.DefaultConfig(), DefaultParams())
	radii, _ := s.BornRadii()
	_, ops := s.Epol(radii)
	// The octree evaluates ordered pairs; naive's ordered-equivalent count
	// is M².
	orderedNaive := int64(m.NumAtoms()) * int64(m.NumAtoms())
	if ops*2 >= orderedNaive {
		t.Errorf("octree Epol ops %d not < half of ordered naive %d", ops, orderedNaive)
	}
}

func TestEpolAggregatesHistogram(t *testing.T) {
	m := molecule.Globule("g", 200, 43)
	s := newTestSystem(t, m, surface.DefaultConfig(), DefaultParams())
	radii, _ := s.BornRadii()
	agg := s.buildEpolAggregates(radii)
	if agg.M < 1 || agg.M > maxEpolClasses {
		t.Fatalf("M = %d", agg.M)
	}
	// Root histogram must sum to the total charge.
	rootSum := 0.0
	for k := 0; k < agg.M; k++ {
		rootSum += agg.hist[k]
	}
	if math.Abs(rootSum-s.Mol.TotalCharge()) > 1e-9 {
		t.Errorf("root histogram sums to %v, total charge %v", rootSum, s.Mol.TotalCharge())
	}
	// Every atom's class must bracket its radius. Recover the realized bin
	// width from powR: powR[k] = Rmin²(1+εbin)^(k+1).
	binBase := agg.powR[1] / agg.powR[0]
	for i, r := range radii {
		k := agg.classOf[i]
		lo := agg.Rmin * math.Pow(binBase, float64(k))
		hi := lo * binBase
		if r < lo*(1-1e-9) || (r > hi*(1+1e-9) && k < agg.M-1) {
			t.Fatalf("atom %d: radius %v outside class %d [%v, %v)", i, r, k, lo, hi)
		}
	}
}

func TestEpolAggregatesUniformRadii(t *testing.T) {
	// All radii equal → a single class.
	m := &molecule.Molecule{Name: "u", Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Radius: 1, Charge: 0.5},
		{Pos: geom.V(5, 0, 0), Radius: 1, Charge: -0.5},
	}}
	s := newTestSystem(t, m, surface.Config{IcoLevel: 1}, DefaultParams())
	agg := s.buildEpolAggregates([]float64{2.0, 2.0})
	if agg.M != 1 {
		t.Errorf("M = %d, want 1", agg.M)
	}
}

func TestEpolFarCriterion(t *testing.T) {
	// Fig. 3: far iff d > (ru+rv)(1+2/ε); default scale is 1.
	f09 := epolFarFactor(0.9, 0)
	if math.Abs(f09-(1+2/0.9)) > 1e-12 {
		t.Errorf("factor(0.9) = %v, want %v", f09, 1+2/0.9)
	}
	if epolFar(6.0, 1, 1, f09) { // threshold 2·3.22 = 6.44
		t.Error("6.0 < 6.44 judged far")
	}
	if !epolFar(6.5, 1, 1, f09) {
		t.Error("6.5 > 6.44 not far")
	}
	// Smaller ε → stricter.
	if epolFar(6.5, 1, 1, epolFarFactor(0.1, 0)) {
		t.Error("ε=0.1 should need d > 42")
	}
	// Explicit scale override multiplies the threshold.
	if epolFar(6.5, 1, 1, epolFarFactor(0.9, 2)) {
		t.Error("scale=2 should need d > 12.9")
	}
}

// Approximate math must stay close to exact math while changing the
// result (so the ablation has something to measure).
func TestApproxMathEpol(t *testing.T) {
	m := molecule.Globule("g", 300, 47)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	exact := DefaultParams()
	approx := DefaultParams()
	approx.Math = ApproxMath
	se, err := NewSystem(m, surf, exact)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := NewSystem(m, surf, approx)
	if err != nil {
		t.Fatal(err)
	}
	radii, _ := se.BornRadii()
	ee, _ := se.Epol(radii)
	ea, _ := sa.Epol(radii)
	if rel := math.Abs(ee-ea) / math.Abs(ee); rel > 1e-2 {
		t.Errorf("approx math relative deviation %v too large", rel)
	}
	if ee == ea {
		t.Error("approximate math changed nothing")
	}
}

func TestFastMathKernels(t *testing.T) {
	for _, x := range []float64{1e-6, 0.1, 1, 2, 37.5, 1e6, 1e12} {
		got := fastInvSqrt(x)
		want := 1 / math.Sqrt(x)
		if math.Abs(got-want)/want > 3e-3 {
			t.Errorf("fastInvSqrt(%v) = %v, want %v", x, got, want)
		}
	}
	if !math.IsInf(fastInvSqrt(0), 1) || !math.IsInf(fastInvSqrt(-1), 1) {
		t.Error("fastInvSqrt non-positive handling")
	}
	for _, x := range []float64{0, -0.5, -1, -10, -100, 0.5, 1, 5} {
		got := fastExp(x)
		want := math.Exp(x)
		if math.Abs(got-want)/want > 1e-3 {
			t.Errorf("fastExp(%v) = %v, want %v", x, got, want)
		}
	}
	if fastExp(-1000) != 0 {
		t.Error("fastExp underflow")
	}
	if !math.IsInf(fastExp(1000), 1) {
		t.Error("fastExp overflow")
	}
}

func TestFGBLimits(t *testing.T) {
	// r → 0: f → sqrt(RiRj) (self-energy denominator).
	if math.Abs(fGB(0, 4)-2) > 1e-14 {
		t.Errorf("fGB(0) = %v", fGB(0, 4))
	}
	// r >> R: f → r.
	if math.Abs(fGB(1e6, 1)-1000) > 1e-3 {
		t.Errorf("fGB(large) = %v", fGB(1e6, 1))
	}
	// Monotone in r².
	if fGB(4, 1) >= fGB(9, 1) {
		t.Error("fGB not monotone in r²")
	}
}

func TestTau(t *testing.T) {
	if got := Tau(80); math.Abs(got-0.9875) > 1e-12 {
		t.Errorf("Tau(80) = %v", got)
	}
	if Tau(1) != 0 {
		t.Error("vacuum should give zero polarization prefactor")
	}
}

// refFarClassSum is the per-class-pair far field, the differential
// reference for the k-convolved farClassSum: one kernel evaluation per
// non-empty class pair (i, j) of source node u (src) and target node v
// (dst). Both aggregate sets share their radius range, so src's product
// table applies. It also returns the sum's absolute mass Σ|term|, the
// scale rounding differences are measured against: a node pair of a
// near-neutral molecule can cancel to far below its terms.
func refFarClassSum(src, dst *epolAggregates, u, v int32, d float64, dvec geom.Vec3, approx bool) (sum, mass float64) {
	r2 := d * d
	dhat := dvec.Scale(1 / d)
	ubase, vbase := int(u)*src.M, int(v)*dst.M
	ord := src.order
	for i := 0; i < src.M; i++ {
		qu := src.hist[ubase+i]
		var du float64
		var dipU geom.Vec3
		if ord >= OrderDipole {
			dipU = src.dip[ubase+i]
			du = dhat.Dot(dipU)
		}
		if qu == 0 && du == 0 &&
			(ord != OrderQuadrupole || src.quad[ubase+i] == (geom.Mat3{})) {
			continue
		}
		for j := 0; j < dst.M; j++ {
			qv := dst.hist[vbase+j]
			var dv float64
			var dipV geom.Vec3
			if ord >= OrderDipole {
				dipV = dst.dip[vbase+j]
				dv = dhat.Dot(dipV)
			}
			if qv == 0 && dv == 0 &&
				(ord != OrderQuadrupole || dst.quad[vbase+j] == (geom.Mat3{})) {
				continue
			}
			t := src.powR[i+j]
			var e, invF float64
			if approx {
				e = fastExp(-r2 / (4 * t))
				invF = fastInvSqrt(r2 + t*e)
			} else {
				e = math.Exp(-r2 / (4 * t))
				invF = 1 / math.Sqrt(r2+t*e)
			}
			mass += math.Abs(qu * qv * invF)
			if ord == OrderMonopole {
				sum += qu * qv * invF
				continue
			}
			gp := -d * (1 - e/4) * invF * invF * invF
			sum += qu*qv*invF + gp*(qu*dv-du*qv)
			mass += math.Abs(gp * (qu*dv - du*qv))
			if ord == OrderQuadrupole {
				up := 2 * d * (1 - e/4)
				upp := 2*(1-e/4) + (r2/(4*t))*e
				invF3 := invF * invF * invF
				gpp := 0.75*up*up*invF3*invF*invF - 0.5*upp*invF3
				ku, kv := &src.quad[ubase+i], &dst.quad[vbase+j]
				a2 := qu*dhat.Dot(kv.MulVec(dhat)) - 2*du*dv + dhat.Dot(ku.MulVec(dhat))*qv
				b2 := qu*(kv[0]+kv[4]+kv[8]) - 2*dipU.Dot(dipV) + (ku[0]+ku[4]+ku[8])*qv
				sum += 0.5*gpp*a2 + (0.5*gp/d)*(b2-a2)
				mass += math.Abs(0.5*gpp*a2) + math.Abs((0.5*gp/d)*(b2-a2))
			}
		}
	}
	return sum, mass
}

// refEpolSum is the one-sided ordered-pair walk, the differential
// reference for the symmetric near field: every leaf V walks src's tree
// from the root, far pairs through refFarClassSum and every leaf block
// (U, V) one-sided, self terms where U == V. Returns the raw sum.
func refEpolSum(ep *epolPass) float64 {
	src, dst := ep.src, ep.dst
	var walk func(u, v int32) float64
	walk = func(u, v int32) float64 {
		un := &src.tree.Nodes[u]
		vn := &dst.tree.Nodes[v]
		d := un.Center.Dist(vn.Center)
		if !un.Leaf && epolFar(d, un.Radius, vn.Radius, ep.factor) {
			sum, _ := refFarClassSum(src, dst, u, v, d, vn.Center.Sub(un.Center), ep.approx)
			return sum
		}
		if !un.Leaf {
			sum := 0.0
			for _, c := range un.Children {
				if c != -1 {
					sum += walk(c, v)
				}
			}
			return sum
		}
		kernel := pairEnergyKernel(ExactMath)
		if ep.approx {
			kernel = pairEnergyKernel(ApproxMath)
		}
		sum := 0.0
		for a := un.Start; a < un.End; a++ {
			for b := vn.Start; b < vn.End; b++ {
				if src == dst && a == b {
					sum += src.q[a] * src.q[a] / src.r[a]
					continue
				}
				sum += kernel(src.q[a]*dst.q[b], src.p[a].Dist2(dst.p[b]), src.r[a]*dst.r[b])
			}
		}
		return sum
	}
	sum := 0.0
	for _, v := range dst.tree.Leaves() {
		sum += walk(src.tree.Root(), v)
	}
	return sum
}

// farPairs lists every far node pair (U, V) the walks of dst's leaves
// meet in src's tree.
func farPairs(ep *epolPass) [][2]int32 {
	var out [][2]int32
	var walk func(u, v int32)
	walk = func(u, v int32) {
		un := &ep.src.tree.Nodes[u]
		vn := &ep.dst.tree.Nodes[v]
		if un.Leaf {
			return
		}
		if epolFar(un.Center.Dist(vn.Center), un.Radius, vn.Radius, ep.factor) {
			out = append(out, [2]int32{u, v})
			return
		}
		for _, c := range un.Children {
			if c != -1 {
				walk(c, v)
			}
		}
	}
	for _, v := range ep.dst.tree.Leaves() {
		walk(ep.src.tree.Root(), v)
	}
	return out
}

// rosterSystem builds roster molecule i (optionally rigidly moved) at the
// given order, math mode and energy opening scale, with its octree Born
// radii.
func rosterSystem(t *testing.T, i, order int, mode MathMode, tr geom.Transform, scale float64) (*System, []float64) {
	t.Helper()
	m := molecule.ZDockMolecule(molecule.ZDockRoster()[i]).ApplyTransform(tr)
	p := DefaultParams()
	p.Accuracy.Order = order
	p.Math = mode
	p.OpeningScale = scale
	s := newTestSystem(t, m, surface.DefaultConfig(), p)
	radii, _ := s.BornRadii()
	return s, radii
}

// TestFarClassSumMatchesPairwise checks the k-convolved far field against
// the per-class-pair reference on every far node pair of a roster
// molecule, at every order and math mode, within one tree and across two
// trees whose aggregates share a radius range (the Complex pass). The
// opening scale is halved so that a 1k-atom molecule has far pairs at
// every order (the monopole criterion is the tightest).
func TestFarClassSumMatchesPairwise(t *testing.T) {
	const scale = 0.5
	for _, order := range []int{OrderMonopole, OrderDipole, OrderQuadrupole} {
		for _, mode := range []MathMode{ExactMath, ApproxMath} {
			rec, recRadii := rosterSystem(t, 10, order, mode, geom.IdentityTransform(), scale)
			lig, ligRadii := rosterSystem(t, 0, order, mode, geom.Translate(geom.V(90, 0, 0)), scale)
			rmin, rmax := math.Inf(1), 0.0
			for _, r := range append(append([]float64(nil), recRadii...), ligRadii...) {
				rmin, rmax = math.Min(rmin, r), math.Max(rmax, r)
			}
			recAgg := rec.buildEpolAggregatesRange(recRadii, rmin, rmax)
			ligAgg := lig.buildEpolAggregatesRange(ligRadii, rmin, rmax)
			for _, pc := range []struct {
				name string
				ep   *epolPass
			}{
				{"same-tree", rec.epolPass(recAgg, recAgg, nil)},
				{"cross-tree", rec.epolPass(recAgg, ligAgg, nil)},
			} {
				name, ep := pc.name, pc.ep
				pairs := farPairs(ep)
				if len(pairs) == 0 {
					t.Fatalf("p=%d %v %s: no far pairs", order, mode, name)
				}
				worst := 0.0
				for _, uv := range pairs {
					u, v := uv[0], uv[1]
					un, vn := &ep.src.tree.Nodes[u], &ep.dst.tree.Nodes[v]
					d := un.Center.Dist(vn.Center)
					dvec := vn.Center.Sub(un.Center)
					ep.target(v)
					got, _ := ep.farClassSum(u, d, dvec)
					want, mass := refFarClassSum(ep.src, ep.dst, u, v, d, dvec, ep.approx)
					if mass == 0 {
						if got != 0 {
							t.Errorf("p=%d %v %s: pair (%d, %d) is %v, reference has no terms", order, mode, name, u, v, got)
						}
						continue
					}
					if rel := math.Abs(got-want) / mass; rel > worst {
						worst = rel
					}
				}
				t.Logf("p=%d %v %s: worst difference %.2g of the term mass over %d far pairs", order, mode, name, worst, len(pairs))
				if worst > 1e-12 {
					t.Errorf("p=%d %v %s: worst far-pair difference %.3g of the term mass over %d pairs",
						order, mode, name, worst, len(pairs))
				}
			}
		}
	}
}

// TestSymmetricNearFieldMatchesOrderedPairs checks the whole symmetric
// pass against the ordered-pair walk it replaced, on a single leaf, two
// atoms in separate leaves, coincident atoms, and a roster molecule.
func TestSymmetricNearFieldMatchesOrderedPairs(t *testing.T) {
	atom := func(x, y, z, q float64) molecule.Atom {
		return molecule.Atom{Pos: geom.V(x, y, z), Radius: 1.5, Charge: q}
	}
	oneLeaf := DefaultParams()
	fine := DefaultParams()
	fine.LeafAtoms = 1
	roster, rosterRadii := rosterSystem(t, 10, OrderDipole, ExactMath, geom.IdentityTransform(), 0)
	cases := []struct {
		name  string
		s     *System
		radii []float64
	}{
		{"single-leaf", newTestSystem(t, &molecule.Molecule{Name: "leaf", Atoms: []molecule.Atom{
			atom(0, 0, 0, 0.4), atom(2, 0, 0, -0.3), atom(0, 2.5, 0, 0.2), atom(1, 1, 2, -0.5),
		}}, surface.DefaultConfig(), oneLeaf), nil},
		{"two-atoms", newTestSystem(t, &molecule.Molecule{Name: "two", Atoms: []molecule.Atom{
			atom(0, 0, 0, 1), atom(3, 1, 0, -0.7),
		}}, surface.DefaultConfig(), fine), nil},
		{"coincident", newTestSystem(t, &molecule.Molecule{Name: "same", Atoms: []molecule.Atom{
			atom(0, 0, 0, 0.5), atom(0, 0, 0, -0.25), atom(0, 0, 0, 0.75), atom(4, 0, 0, -0.5), atom(4, 3, 0, 0.1),
		}}, surface.DefaultConfig(), fine), nil},
		{"roster", roster, rosterRadii},
	}
	for _, tc := range cases {
		radii := tc.radii
		if radii == nil {
			radii, _ = tc.s.BornRadii()
		}
		agg := tc.s.buildEpolAggregates(radii)
		ep := tc.s.epolPass(agg, agg, nil)
		got, _ := ep.leaves(tc.s.aLeaves)
		want := refEpolSum(ep)
		if rel := relDiff(got, want); rel > 1e-12 {
			t.Errorf("%s: symmetric %v vs ordered %v (rel %.3g)", tc.name, got, want, rel)
		}
	}
}

// TestClippedEpolSumsToWhole cuts a roster molecule's atoms into P equal
// item ranges, the atom division's shares, and checks that the clipped
// walks sum to the whole walk at every order and math mode.
func TestClippedEpolSumsToWhole(t *testing.T) {
	for _, order := range []int{OrderMonopole, OrderDipole, OrderQuadrupole} {
		for _, mode := range []MathMode{ExactMath, ApproxMath} {
			s, radii := rosterSystem(t, 10, order, mode, geom.IdentityTransform(), 0)
			agg := s.buildEpolAggregates(radii)
			whole, _ := s.epolPass(agg, agg, nil).leaves(s.aLeaves)
			for _, P := range []int{1, 2, 3, 5, 7, 12, 13} {
				cuts := []int{0}
				for r := 0; r < P; r++ {
					_, hi := segment(s.NumAtoms(), P, r)
					cuts = append(cuts, hi)
				}
				if rel := relDiff(clippedEpolSum(s, agg, cuts), whole); rel > 1e-12 {
					t.Errorf("p=%d %v P=%d: clipped sum off the whole walk by %.3g", order, mode, P, rel)
				}
			}
		}
	}
}
