package gb

import (
	"math"

	"gbpolar/internal/geom"
	"gbpolar/internal/octree"
)

// NaiveEpol evaluates Eq. 2 exactly: Epol = −(τ/2)·κ·Σ_{i,j} q_i q_j /
// f_GB(r_ij, R_i, R_j) over all ordered atom pairs including i = j (the
// self term q_i²/R_i). O(M²). Returns the energy in kcal/mol and the pair
// count.
func (s *System) NaiveEpol(radii []float64) (float64, int64) {
	kernel := pairEnergyKernel(s.Params.Math)
	atoms := s.Mol.Atoms
	sum := 0.0
	ops := int64(0)
	for i := range atoms {
		qi, pi, ri := atoms[i].Charge, atoms[i].Pos, radii[i]
		// Self term.
		sum += qi * qi / ri
		ops++
		for j := i + 1; j < len(atoms); j++ {
			r2 := pi.Dist2(atoms[j].Pos)
			sum += 2 * kernel(qi*atoms[j].Charge, r2, ri*radii[j])
			ops++
		}
	}
	return -0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * sum, ops
}

// epolAggregates holds the per-node Born-radius-class charge histograms
// q_U[k] of Fig. 3: class k collects the total charge of atoms with Born
// radius in [Rmin(1+ε)^k, Rmin(1+ε)^(k+1)).
type epolAggregates struct {
	M       int       // number of classes: ceil(log_{1+ε}(Rmax/Rmin)), ≥ 1
	Rmin    float64   //
	hist    []float64 // dense [node*M + k] charge histogram
	powR    []float64 // powR[k] = Rmin²·(1+ε)^(k+1) for k ∈ [0, 2M)
	classOf []int     // per-atom class (original index)
	// dip[node*M + k] is the class-k charge dipole Σ q_a·(p_a − center)
	// about the node's ball center: the first-order (FMM p=1) correction
	// that the "Greengard–Rokhlin type" far field needs, because
	// protein charge distributions are locally dipolar and a pure
	// monopole histogram drops their leading far-field term.
	dip []geom.Vec3
	// order is the expansion order the far-field evaluation runs at
	// (always built from the owning system's accuracy spec). The dip
	// slice is populated regardless — it is cheap and Complex shares
	// aggregates across passes — but OrderMonopole evaluation ignores it.
	order int
	// quad[node*M + k] is the class-k charge quadrupole Σ q_a·m_a m_aᵀ
	// (m_a = p_a − center): the second-order moment of the p=2 far
	// field. Nil below OrderQuadrupole.
	quad []geom.Mat3
	// tree is the atom octree the aggregates describe. q, r and p hold
	// each atom's charge, Born radius and position in tree item order
	// (slot i is atom tree.Items[i]), so a node's atoms are the contiguous
	// slots [Start, End) and the near field reads them without going
	// through the molecule.
	tree *octree.Tree
	q, r []float64
	p    []geom.Vec3
	// cls[clsAt[n]:clsAt[n+1]] lists node n's non-empty classes in
	// ascending order: those with a non-zero moment at the evaluated
	// order. The far field walks these lists instead of all M classes.
	cls   []int32
	clsAt []int32
}

// maxEpolClasses caps the histogram width: below the corresponding bin
// width the far-field binning error is negligible next to the clustering
// error, and the cap bounds the O(M²) class-pair loops.
const maxEpolClasses = 128

// buildEpolAggregates computes the histograms for the given Born radii.
// The bin width is log(1+ε) unless that would exceed maxEpolClasses, in
// which case the bins are widened just enough to span [Rmin, Rmax].
func (s *System) buildEpolAggregates(radii []float64) *epolAggregates {
	rmin, rmax := math.Inf(1), 0.0
	for _, r := range radii {
		if r < rmin {
			rmin = r
		}
		if r > rmax {
			rmax = r
		}
	}
	return s.buildEpolAggregatesRange(radii, rmin, rmax)
}

// buildEpolAggregatesRange builds the histograms over an explicit radius
// range [rmin, rmax] — two systems sharing a range produce directly
// comparable class indices (the cross-molecule energy pass of Complex).
func (s *System) buildEpolAggregatesRange(radii []float64, rmin, rmax float64) *epolAggregates {
	eps := math.Min(s.Params.Accuracy.EpsEpol, defaultBinEps)
	if s.Params.Accuracy.BinWidth > 0 {
		eps = s.Params.Accuracy.BinWidth
	}
	agg := &epolAggregates{Rmin: rmin, order: s.order()}
	epsBin := eps
	if rmax > rmin {
		if need := math.Log(rmax/rmin) / math.Log1p(eps); need+1 > maxEpolClasses {
			epsBin = math.Expm1(math.Log(rmax/rmin) / (maxEpolClasses - 1))
		}
	}
	logBase := math.Log1p(epsBin)
	if rmax <= rmin {
		agg.M = 1
	} else {
		agg.M = int(math.Ceil(math.Log(rmax/rmin)/logBase)) + 1
		if agg.M > maxEpolClasses {
			agg.M = maxEpolClasses
		}
	}
	agg.classOf = make([]int, len(radii))
	for i, r := range radii {
		k := 0
		if r > rmin {
			k = int(math.Log(r/rmin) / logBase)
		}
		if k >= agg.M {
			k = agg.M - 1
		}
		agg.classOf[i] = k
	}
	// powR[k] = Rmin²(1+ε)^(k+1): the class-product representative at the
	// geometric middle of its cell (a pair (i, j) has true R_iR_j in
	// [Rmin²(1+ε)^(i+j), Rmin²(1+ε)^(i+j+2))), which halves the bias of
	// the paper's lower-edge (1+ε)^(i+j) form.
	agg.powR = make([]float64, 2*agg.M)
	for k := range agg.powR {
		agg.powR[k] = rmin * rmin * math.Pow(1+epsBin, float64(k+1))
	}
	// Bottom-up aggregation: parents precede children in DFS index order,
	// so iterating in reverse has every child ready before its parent.
	agg.hist = make([]float64, s.TA.NumNodes()*agg.M)
	agg.dip = make([]geom.Vec3, s.TA.NumNodes()*agg.M)
	if agg.order == OrderQuadrupole {
		agg.quad = make([]geom.Mat3, s.TA.NumNodes()*agg.M)
	}
	agg.tree = s.TA
	agg.q = make([]float64, len(s.TA.Items))
	agg.r = make([]float64, len(s.TA.Items))
	agg.p = make([]geom.Vec3, len(s.TA.Items))
	for i, ai := range s.TA.Items {
		agg.q[i] = s.Mol.Atoms[ai].Charge
		agg.r[i] = radii[ai]
		agg.p[i] = s.atomPos[ai]
	}
	for i := s.TA.NumNodes() - 1; i >= 0; i-- {
		n := &s.TA.Nodes[i]
		base := i * agg.M
		if n.Leaf {
			agg.addMoments(base, agg, n.Start, n.End, n.Center)
			continue
		}
		for _, c := range n.Children {
			if c == octree.NoChild {
				continue
			}
			cn := &s.TA.Nodes[c]
			shift := cn.Center.Sub(n.Center)
			cbase := int(c) * agg.M
			for k := 0; k < agg.M; k++ {
				q := agg.hist[cbase+k]
				agg.hist[base+k] += q
				if agg.quad != nil {
					// Re-center the child quadrupole about the parent:
					// K' = K + s⊗D + D⊗s + q·s⊗s, with the child dipole D
					// taken BEFORE its own re-centering.
					cd := agg.dip[cbase+k]
					kq := &agg.quad[base+k]
					cq := &agg.quad[cbase+k]
					for t := 0; t < 9; t++ {
						kq[t] += cq[t]
					}
					addOuter(kq, shift, cd)
					addOuter(kq, cd, shift)
					addOuter(kq, shift.Scale(q), shift)
				}
				// Re-center the child dipole about the parent center.
				agg.dip[base+k] = agg.dip[base+k].Add(agg.dip[cbase+k]).Add(shift.Scale(q))
			}
		}
	}
	agg.clsAt = make([]int32, 1, s.TA.NumNodes()+1)
	agg.cls = make([]int32, 0, s.TA.NumNodes())
	for n := 0; n < s.TA.NumNodes(); n++ {
		agg.cls = agg.appendClasses(agg.cls, n*agg.M)
		agg.clsAt = append(agg.clsAt, int32(len(agg.cls)))
	}
	return agg
}

// addMoments accumulates the class moments of src's item slots [lo, hi)
// about center into agg's slots base+k, in item order.
func (agg *epolAggregates) addMoments(base int, src *epolAggregates, lo, hi int32, center geom.Vec3) {
	for a := lo; a < hi; a++ {
		k := base + src.classOf[src.tree.Items[a]]
		q := src.q[a]
		m := src.p[a].Sub(center)
		agg.hist[k] += q
		agg.dip[k] = agg.dip[k].Add(m.Scale(q))
		if agg.quad != nil {
			addOuter(&agg.quad[k], m.Scale(q), m)
		}
	}
}

// appendClasses appends to dst, in ascending order, the classes of the
// node at slot base that carry a non-empty moment.
func (agg *epolAggregates) appendClasses(dst []int32, base int) []int32 {
	for k := 0; k < agg.M; k++ {
		if agg.nonEmpty(base + k) {
			dst = append(dst, int32(k))
		}
	}
	return dst
}

// nonEmpty reports whether histogram slot node·M+k carries a non-zero
// moment at the evaluated order. An empty slot contributes nothing to any
// far-field term, so the class lists skip it.
func (agg *epolAggregates) nonEmpty(slot int) bool {
	return agg.hist[slot] != 0 ||
		agg.order >= OrderDipole && agg.dip[slot] != (geom.Vec3{}) ||
		agg.order == OrderQuadrupole && agg.quad[slot] != (geom.Mat3{})
}

// epolOpeningScale multiplies Fig. 3's far threshold (1 + 2/ε). With the
// first-order dipole correction in farClassSum the printed criterion
// already lands the realized error in the paper's Fig. 10 band (≤1.5% at
// ε = 0.9), so the default is 1; the knob remains for the ablation bench.
const epolOpeningScale = 1.0

// defaultBinEps caps the Born-radius class width: the histogram binning
// error is the accuracy floor of the far field, and bins wider than
// ln(1.2) measurably bias f_GB (EXPERIMENTS.md calibration: at ε = 0.9
// the paper-style ln(1+ε) bins cost ~5% energy error versus ~0.6% at
// 0.2, for ~20% more work).
const defaultBinEps = 0.2

// epolFarFactor returns the threshold multiplier (1 + 2/ε)·scale of the
// energy far criterion.
func epolFarFactor(eps, scale float64) float64 {
	if scale <= 0 {
		scale = epolOpeningScale
	}
	return (1 + 2/eps) * scale
}

// epolFarFactorOrder generalizes epolFarFactor to the expansion order p:
// the clustering error of an order-p class field scales like
// ((r_U+r_V)/d)^(p+1) ≤ (1/factor)^(p+1), so holding the bound at the
// calibrated p=1 value (1/factor)² gives factor_p = factor^(2/(p+1)) —
// tighter (larger) for the monopole field, looser for the quadrupole
// field at the same target error. The p=1 branch returns the legacy
// factor literally so the default stays bitwise identical.
func epolFarFactorOrder(eps, scale float64, order int) float64 {
	f := epolFarFactor(eps, scale)
	if order == OrderDipole {
		return f
	}
	return math.Pow(f, 2/float64(order+1))
}

// epolFar reports whether node balls (separation d, radii ru, rv) satisfy
// the far criterion r_UV > (r_U+r_V)·factor.
func epolFar(d, ru, rv, factor float64) bool {
	return d > (ru+rv)*factor
}

// pairTally splits an energy traversal's evaluation count into exact
// (near) and class-approximated (far) pair evaluations for the obs
// counters. A nil tally disables counting, so callers that only want the
// sum (Complex, the distributed data variants) pass nil.
type pairTally struct{ near, far int64 }

func (t *pairTally) addNear(n int64) {
	if t != nil {
		t.near += n
	}
}

func (t *pairTally) addFar(n int64) {
	if t != nil {
		t.far += n
	}
}

func (t *pairTally) add(o pairTally) {
	t.near += o.near
	t.far += o.far
}

// epolPass is Fig. 3's APPROX-Epol(U, V): the raw pair sum
// Σ q_u q_v / f_GB between the atoms under node U of src's tree and the
// atoms under leaf V of dst's tree, approximated by class histograms when
// (U, V) is far, exact at leaves. A same-tree pass (src == dst) evaluates
// the near field symmetrically; a cross-tree pass (Complex, the Segmented
// ring) evaluates every block in its one direction. Cross-tree aggregate
// sets must share their radius range (buildEpolAggregatesRange), so both
// have the same M and product table. A pass is single-goroutine: it owns
// the far-field scratch.
//
// The targets may be clipped to a dst item range [lo, hi) (within), the
// atom-based work division of §IV. A leaf that straddles an edge keeps
// its ball for the far test but contributes only its owned atoms: their
// rows in the near and self blocks, and their class moments about the
// leaf centre in the far field. Over a partition of the items the
// clipped walks sum to the whole walk.
type epolPass struct {
	src, dst *epolAggregates
	factor   float64
	approx   bool
	tally    *pairTally
	lo, hi   int32
	// The target in flight (see target): its owned dst slots [vlo, vhi),
	// the aggregate set and slot base its class moments sit at, and its
	// non-empty class list. A whole leaf reads dst's own slots; a clipped
	// one reads part, a one-node aggregate set of the owned atoms'
	// moments.
	vlo, vhi int32
	tgt      *epolAggregates
	tbase    int
	vc       []int32
	part     *epolAggregates
	// Per-k accumulators of the far-field convolution, k = i+j ∈ [0, 2M):
	// charge products, dipole cross terms and the p = 2 contractions.
	c0, c1, a2, b2 []float64
	// The target node's class moments for the far pair in flight, indexed
	// by position in its class list: charge, d̂·dipole, d̂ᵀKd̂, tr K, dipole.
	vq, vd, vA, vT []float64
	vDip           []geom.Vec3
}

// epolPass returns a pass of src's tree against dst's leaves at this
// system's far criterion and math mode.
func (s *System) epolPass(src, dst *epolAggregates, tally *pairTally) *epolPass {
	m := src.M
	buf := make([]float64, 13*m)
	dips := make([]geom.Vec3, 2*m)
	part := &epolAggregates{M: m, order: dst.order, hist: buf[12*m:], dip: dips[m:], cls: make([]int32, 0, m)}
	if dst.quad != nil {
		part.quad = make([]geom.Mat3, m)
	}
	return &epolPass{
		src: src, dst: dst,
		factor: s.epolFactor(),
		approx: s.Params.Math == ApproxMath,
		tally:  tally,
		hi:     int32(len(dst.q)),
		part:   part,
		c0:     buf[0 : 2*m], c1: buf[2*m : 4*m], a2: buf[4*m : 6*m], b2: buf[6*m : 8*m],
		vq: buf[8*m : 9*m], vd: buf[9*m : 10*m], vA: buf[10*m : 11*m], vT: buf[11*m : 12*m],
		vDip: dips[:m],
	}
}

// within clips the pass's targets to the dst item range [lo, hi).
func (ep *epolPass) within(lo, hi int) *epolPass {
	ep.lo, ep.hi = int32(lo), int32(hi)
	return ep
}

// leaves runs the pass from src's root against each target leaf in
// order, returning the raw sum and the evaluation count. Leaves outside
// the clip range contribute nothing.
func (ep *epolPass) leaves(vs []int32) (float64, int64) {
	sum := 0.0
	ops := int64(0)
	for _, v := range vs {
		if !ep.target(v) {
			continue
		}
		s, o := ep.run(ep.src.tree.Root(), v)
		sum += s
		ops += o
	}
	return sum, ops
}

// target makes leaf v, clipped to the pass's item range, the target of
// the walk. It reports false when the leaf lies outside the range.
func (ep *epolPass) target(v int32) bool {
	dst := ep.dst
	vn := &dst.tree.Nodes[v]
	ep.vlo, ep.vhi = max(vn.Start, ep.lo), min(vn.End, ep.hi)
	if ep.vlo >= ep.vhi {
		return false
	}
	if ep.vlo == vn.Start && ep.vhi == vn.End {
		ep.tgt, ep.tbase = dst, int(v)*dst.M
		ep.vc = dst.cls[dst.clsAt[v]:dst.clsAt[v+1]]
		return true
	}
	// A clipped leaf: the owned atoms' class moments about the leaf
	// centre, accumulated as buildEpolAggregatesRange accumulates a leaf.
	pt := ep.part
	clear(pt.hist)
	clear(pt.dip)
	clear(pt.quad)
	pt.addMoments(0, dst, ep.vlo, ep.vhi, vn.Center)
	pt.cls = pt.appendClasses(pt.cls[:0], 0)
	ep.tgt, ep.tbase, ep.vc = pt, 0, pt.cls
	return true
}

// run is the recursion of APPROX-Epol(U, V) for target leaf v.
func (ep *epolPass) run(u, v int32) (float64, int64) {
	un := &ep.src.tree.Nodes[u]
	vn := &ep.dst.tree.Nodes[v]
	d := un.Center.Dist(vn.Center)
	// The class-histogram approximation only applies when U is internal:
	// leaf–leaf pairs are evaluated exactly below at comparable cost
	// (≤ leaf² pairs vs nnz² class pairs), and skipping the binning there
	// matters because two small leaves can be geometrically "far" (tiny
	// radii) while still close on the f_GB scale √(R_iR_j), where binned
	// radii misprice the kernel.
	if !un.Leaf && epolFar(d, un.Radius, vn.Radius, ep.factor) {
		return ep.farClassSum(u, d, vn.Center.Sub(un.Center))
	}
	if un.Leaf {
		return ep.near(u, v)
	}
	sum := 0.0
	ops := int64(1)
	for _, c := range un.Children {
		if c != octree.NoChild {
			cs, cops := ep.run(c, v)
			sum += cs
			ops += cops
		}
	}
	return sum, ops
}

// near evaluates the leaf block (U, V) exactly: ordered pairs (u-atom,
// owned v-atom). In a same-tree pass the block is symmetric in U and V,
// so when U's own walk also reaches V exactly (mirrored) the pair of
// blocks is evaluated once, at the higher leaf index with weight 2, and
// skipped at the lower one. U == V sums the owned rows' pairs with the
// later atoms of the leaf, doubled, plus their self terms q_i²/R_i.
func (ep *epolPass) near(u, v int32) (float64, int64) {
	w := 1.0
	if ep.src == ep.dst {
		if u == v {
			sum, ops := ep.selfBlock(&ep.src.tree.Nodes[u])
			ep.tally.addNear(ops)
			return sum, ops
		}
		if ep.mirrored(u, v) {
			if u > v {
				return 0, 0
			}
			w = 2
		}
	}
	sum, ops := ep.block(&ep.src.tree.Nodes[u])
	ep.tally.addNear(ops)
	return w * sum, ops
}

// mirrored reports whether leaf U's own walk reaches leaf V exactly: no
// internal ancestor of V is far from U. The test repeats the walk's own
// far test (same operands, same order), so the walks of U and V agree on
// it bit for bit and every mirrored block pair is counted exactly once.
func (ep *epolPass) mirrored(u, v int32) bool {
	nodes := ep.src.tree.Nodes
	un := &nodes[u]
	for a := nodes[v].Parent; a != octree.NoChild; a = nodes[a].Parent {
		an := &nodes[a]
		if epolFar(an.Center.Dist(un.Center), an.Radius, un.Radius, ep.factor) {
			return false
		}
	}
	return true
}

// block sums q_a q_b / f_GB over the atoms a under un (src) and the
// target's owned atoms b, in item order.
func (ep *epolPass) block(un *octree.Node) (float64, int64) {
	src := ep.src
	dq, dr, dp := ep.dst.q[ep.vlo:ep.vhi], ep.dst.r[ep.vlo:ep.vhi], ep.dst.p[ep.vlo:ep.vhi]
	sum := 0.0
	for a := un.Start; a < un.End; a++ {
		sum += ep.row(src.q[a], src.r[a], src.p[a], dq, dr, dp)
	}
	return sum, int64(un.Count()) * int64(len(dq))
}

// selfBlock sums the target leaf n against itself: each owned atom's self
// term plus its pairs with the leaf's later atoms, doubled. Over a whole
// leaf that is every pair i < j once.
func (ep *epolPass) selfBlock(n *octree.Node) (float64, int64) {
	q, r, p := ep.src.q[:n.End], ep.src.r[:n.End], ep.src.p[:n.End]
	self, pairs := 0.0, 0.0
	for a := ep.vlo; a < ep.vhi; a++ {
		self += q[a] * q[a] / r[a]
		pairs += ep.row(q[a], r[a], p[a], q[a+1:], r[a+1:], p[a+1:])
	}
	c, later := int64(ep.vhi-ep.vlo), int64(n.End-ep.vhi)
	return self + 2*pairs, c + c*later + c*(c-1)/2
}

// row sums q_a q_b / f_GB(r_ab²; R_aR_b) of one atom a against the atoms
// b of the item-ordered slices, with the kernel inlined for both math
// modes.
func (ep *epolPass) row(qa, ra float64, pa geom.Vec3, q, r []float64, p []geom.Vec3) float64 {
	r, p = r[:len(q)], p[:len(q)]
	sum := 0.0
	if ep.approx {
		for b := range q {
			r2, rr := pa.Dist2(p[b]), ra*r[b]
			sum += qa * q[b] * fastInvSqrt(r2+rr*fastExp(-r2/(4*rr)))
		}
		return sum
	}
	for b := range q {
		r2, rr := pa.Dist2(p[b]), ra*r[b]
		sum += qa * q[b] * (1 / math.Sqrt(r2+rr*math.Exp(-r2/(4*rr))))
	}
	return sum
}

// farClassSum evaluates the far-field interaction of source node U with
// the target in flight (see target) at center distance d (direction
// vector dvec = c_V − c_U of the target leaf's centre): over every
// non-empty Born-radius class pair (i, j), the order-p expansion of
// g(|d·d̂ + δ|) about δ = 0, with δ = m_v − m_u the pair offset and
// g(r) = 1/f_GB(r; R_iR_j ≈ Rmin²(1+ε)^(i+j+1)):
//
//	p ≥ 0:  Q_U[i]·Q_V[j]·g(d)
//	p ≥ 1:  + g'(d)·[Q_U[i]·(d̂·D_V[j]) − (d̂·D_U[i])·Q_V[j]]
//	p = 2:  + ½g″(d)·⟨(d̂·δ)²⟩ + ½(g'(d)/d)·⟨|δ|² − (d̂·δ)²⟩
//
// where the second-moment contractions come from the class quadrupoles:
// ⟨(d̂·δ)²⟩ = Q_U·d̂ᵀK_Vd̂ − 2(d̂·D_U)(d̂·D_V) + d̂ᵀK_Ud̂·Q_V and
// ⟨|δ|²⟩ = Q_U·tr K_V − 2 D_U·D_V + tr K_U·Q_V.
//
// g, g′ and g″ depend on the class pair only through k = i + j, so the
// bracketed moment products are first convolved into per-k accumulators
// and the kernel (one exp and one sqrt) is evaluated once per non-empty
// k. Returns (raw sum, kernel evaluations).
func (ep *epolPass) farClassSum(u int32, d float64, dvec geom.Vec3) (float64, int64) {
	src, dst := ep.src, ep.tgt
	uc := src.cls[src.clsAt[u]:src.clsAt[u+1]]
	vc := ep.vc
	if len(uc) == 0 || len(vc) == 0 {
		ep.tally.addFar(1)
		return 0, 1
	}
	ord := src.order
	r2 := d * d
	dhat := dvec.Scale(1 / d)
	ubase, vbase := int(u)*src.M, ep.tbase
	vq, vd, vA, vT, vDip := ep.vq[:len(vc)], ep.vd[:len(vc)], ep.vA[:len(vc)], ep.vT[:len(vc)], ep.vDip[:len(vc)]
	for jj, j := range vc {
		slot := vbase + int(j)
		vq[jj] = dst.hist[slot]
		if ord >= OrderDipole {
			vd[jj] = dhat.Dot(dst.dip[slot])
		}
		if ord == OrderQuadrupole {
			kv := &dst.quad[slot]
			vA[jj] = dhat.Dot(kv.MulVec(dhat))
			vT[jj] = kv[0] + kv[4] + kv[8]
			vDip[jj] = dst.dip[slot]
		}
	}
	klo, khi := int(uc[0]+vc[0]), int(uc[len(uc)-1]+vc[len(vc)-1])+1
	c0, c1, a2, b2 := ep.c0[klo:khi], ep.c1[klo:khi], ep.a2[klo:khi], ep.b2[klo:khi]
	clear(c0)
	clear(c1)
	clear(a2)
	clear(b2)
	for _, i := range uc {
		slot := ubase + int(i)
		qu := src.hist[slot]
		off := int(i) - klo
		switch ord {
		case OrderMonopole:
			for jj, j := range vc {
				c0[off+int(j)] += qu * vq[jj]
			}
		case OrderDipole:
			du := dhat.Dot(src.dip[slot])
			for jj, j := range vc {
				k := off + int(j)
				c0[k] += qu * vq[jj]
				c1[k] += qu*vd[jj] - du*vq[jj]
			}
		default:
			dipU := src.dip[slot]
			du := dhat.Dot(dipU)
			ku := &src.quad[slot]
			uA := dhat.Dot(ku.MulVec(dhat))
			uT := ku[0] + ku[4] + ku[8]
			for jj, j := range vc {
				k := off + int(j)
				c0[k] += qu * vq[jj]
				c1[k] += qu*vd[jj] - du*vq[jj]
				a2[k] += qu*vA[jj] - 2*du*vd[jj] + uA*vq[jj]
				b2[k] += qu*vT[jj] - 2*dipU.Dot(vDip[jj]) + uT*vq[jj]
			}
		}
	}
	sum := 0.0
	ops := int64(0)
	for k := range c0 {
		if c0[k] == 0 && c1[k] == 0 && a2[k] == 0 && b2[k] == 0 {
			continue // no class pair lands on this k
		}
		ops++
		t := src.powR[klo+k]
		var e, invF float64
		if ep.approx {
			e = fastExp(-r2 / (4 * t))
			invF = fastInvSqrt(r2 + t*e)
		} else {
			e = math.Exp(-r2 / (4 * t))
			invF = 1 / math.Sqrt(r2+t*e)
		}
		if ord == OrderMonopole {
			sum += c0[k] * invF
			continue
		}
		// g'(d) = −d·(1 − e/4)/f³.
		gp := -d * (1 - e/4) * invF * invF * invF
		sum += c0[k]*invF + gp*c1[k]
		if ord == OrderQuadrupole {
			// g″(d) = ¾u'²/f⁵ − ½u″/f³ with u = f², u' = 2d(1−e/4),
			// u″ = 2(1−e/4) + (r²/4t)e.
			up := 2 * d * (1 - e/4)
			upp := 2*(1-e/4) + (r2/(4*t))*e
			invF3 := invF * invF * invF
			gpp := 0.75*up*up*invF3*invF*invF - 0.5*upp*invF3
			sum += 0.5*gpp*a2[k] + (0.5*gp/d)*(b2[k]-a2[k])
		}
	}
	if ops == 0 {
		ops = 1
	}
	ep.tally.addFar(ops)
	return sum, ops
}

// Epol runs the full serial octree energy pass: every atoms-octree leaf V
// interacts with the whole tree (Fig. 4 Step 6), the raw sums are scaled
// by −τκ/2. Returns the energy in kcal/mol and the interaction count.
func (s *System) Epol(radii []float64) (float64, int64) {
	agg := s.buildEpolAggregates(radii)
	sum, ops := s.epolPass(agg, agg, nil).leaves(s.aLeaves)
	return -0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * sum, ops
}
