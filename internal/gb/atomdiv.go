package gb

import (
	"math"

	"gbpolar/internal/geom"
	"gbpolar/internal/octree"
)

// This file implements the ATOM-BASED-WORK-DIVISION alternative of §IV:
// atoms (not leaf nodes) are divided among processes, each process
// traverses both octrees but computes only for the atoms in its range.
// The paper observes it is slightly slower than node-based division and —
// because division boundaries split tree nodes — its approximation error
// varies with the process count, unlike the node-based scheme. The Born
// phase's atom-range walk is bornPass.runRange (born.go).

// approxEpolAtom computes one atom's interaction with the subtree under
// node u, Barnes-Hut style (the atom is a point, so the far criterion
// reduces to d > r_U·factor): the atom-based energy traversal. Returns the
// raw Σ_j q_i q_j/f sum and the evaluation count.
func (s *System) approxEpolAtom(ai int32, u int32, radii []float64, agg *epolAggregates,
	kernel func(qq, r2, RiRj float64) float64, factor float64, tally *pairTally) (float64, int64) {
	un := &s.TA.Nodes[u]
	pi := s.atomPos[ai]
	qi := s.Mol.Atoms[ai].Charge
	ri := radii[ai]
	d := un.Center.Dist(pi)
	if !un.Leaf && epolFar(d, un.Radius, 0, factor) {
		// Far: classes of U against the atom's exact radius — the order-p
		// expansion of farClassSum specialized to a point target (δ = m_a,
		// the source offset; the target side contributes no moments).
		r2 := d * d
		dhat := un.Center.Sub(pi).Scale(1 / d)
		ord := agg.order
		sum := 0.0
		ops := int64(0)
		base := int(u) * agg.M
		approx := s.Params.Math == ApproxMath
		for j := 0; j < agg.M; j++ {
			qu := agg.hist[base+j]
			var du float64
			if ord >= OrderDipole {
				du = dhat.Dot(agg.dip[base+j])
			}
			if qu == 0 && du == 0 &&
				(ord != OrderQuadrupole || agg.quad[base+j] == (geom.Mat3{})) {
				continue
			}
			// Class product representative: exact atom radius × class-mid
			// radius; powR[k] = Rmin²(1+εb)^(k+1), so the class-j mid
			// radius Rmin(1+εb)^(j+1/2) is sqrt(powR[2j]).
			t := ri * math.Sqrt(agg.powR[2*j])
			var e, invF float64
			if approx {
				e = fastExp(-r2 / (4 * t))
				invF = fastInvSqrt(r2 + t*e)
			} else {
				e = math.Exp(-r2 / (4 * t))
				invF = 1 / math.Sqrt(r2+t*e)
			}
			if ord == OrderMonopole {
				sum += qi * qu * invF
				ops++
				continue
			}
			gp := -d * (1 - e/4) * invF * invF * invF
			sum += qi*qu*invF + qi*gp*du
			if ord == OrderQuadrupole {
				up := 2 * d * (1 - e/4)
				upp := 2*(1-e/4) + (r2/(4*t))*e
				invF3 := invF * invF * invF
				gpp := 0.75*up*up*invF3*invF*invF - 0.5*upp*invF3
				ku := &agg.quad[base+j]
				a2 := dhat.Dot(ku.MulVec(dhat))
				b2 := ku[0] + ku[4] + ku[8]
				sum += qi * (0.5*gpp*a2 + (0.5*gp/d)*(b2-a2))
			}
			ops++
		}
		if ops == 0 {
			ops = 1
		}
		tally.addFar(ops)
		return sum, ops
	}
	if un.Leaf {
		sum := 0.0
		ops := int64(0)
		for _, vi := range s.TA.ItemsOf(u) {
			if vi == ai {
				sum += qi * qi / ri
				ops++
				continue
			}
			r2 := pi.Dist2(s.atomPos[vi])
			sum += kernel(qi*s.Mol.Atoms[vi].Charge, r2, ri*radii[vi])
			ops++
		}
		tally.addNear(ops)
		return sum, ops
	}
	sum := 0.0
	ops := int64(1)
	for _, c := range un.Children {
		if c != octree.NoChild {
			cs, cops := s.approxEpolAtom(ai, c, radii, agg, kernel, factor, tally)
			sum += cs
			ops += cops
		}
	}
	return sum, ops
}
