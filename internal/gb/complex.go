package gb

import (
	"fmt"
	"math"

	"gbpolar/internal/geom"
)

// Complex implements the paper's §IV-C docking reuse: "for drug-design
// and docking where we need to place the ligand at thousands of different
// positions w.r.t. the receptor, we can move the same octree to different
// positions or rotate it as needed ... and then recompute the energy
// values. Therefore, we can consider the octree construction cost as a
// pre-processing cost".
//
// A Complex holds two prepared Systems. Scoring a pose transforms the
// ligand's trees and surface in O(n) (no rebuilds), reuses each
// molecule's cached self Born integrals, computes only the cross-surface
// integrals and the three energy interactions (rec–rec, lig–lig,
// rec–lig) with the pose-dependent radii. Like the paper's scheme, the
// molecular surfaces themselves are frozen: interface desolvation enters
// through the Born radii (each molecule's atoms see the other's surface
// flux), not through re-culling the surfaces.
type Complex struct {
	rec, lig *System
	// Cached pose-independent self integrals (accumulator of each
	// molecule's own surface against its own atom tree).
	recSelf, ligSelf *bornAccum
}

// NewComplex prepares a complex from two systems built with the same
// Params.
func NewComplex(rec, lig *System) (*Complex, error) {
	if rec.Params != lig.Params {
		return nil, fmt.Errorf("gb: receptor and ligand params differ")
	}
	c := &Complex{rec: rec, lig: lig, recSelf: rec.newBornAccum(), ligSelf: lig.newBornAccum()}
	rec.bornPass(rec.q).leaves(rec.qLeaves, c.recSelf)
	lig.bornPass(lig.q).leaves(lig.qLeaves, c.ligSelf)
	return c, nil
}

// PoseResult is the outcome of one pose evaluation.
type PoseResult struct {
	// Epol is the complex's polarization energy (kcal/mol).
	Epol float64
	// RecBorn / LigBorn are the pose-dependent Born radii.
	RecBorn, LigBorn []float64
	// Ops counts interaction evaluations.
	Ops int64
}

// Epol scores the complex with the ligand rigidly transformed by tr.
func (c *Complex) Epol(tr geom.Transform) (*PoseResult, error) {
	rec, lig := c.rec, c.lig
	res := &PoseResult{}

	// ---- Move the ligand: O(n) transforms, no rebuilds -----------------
	ligPos := make([]geom.Vec3, len(lig.atomPos))
	for i, p := range lig.atomPos {
		ligPos[i] = tr.Apply(p)
	}
	ligTA, err := lig.TA.Transformed(tr, ligPos)
	if err != nil {
		return nil, err
	}
	ligQ, err := lig.q.transformed(tr)
	if err != nil {
		return nil, err
	}
	// The moved ligand's atom side, for its Born pass, push and energy.
	ligView := &System{Params: lig.Params, Mol: lig.Mol, TA: ligTA, atomPos: ligPos}

	// ---- Born radii: cached self + cross-surface passes -----------------
	recAcc := rec.newBornAccum()
	copyAccum(recAcc, c.recSelf)
	res.Ops += rec.bornPass(ligQ).leaves(lig.qLeaves, recAcc)
	res.RecBorn = make([]float64, rec.NumAtoms())
	rec.PushIntegralsToAtoms(recAcc, 0, rec.NumAtoms(), res.RecBorn)

	ligAcc := lig.newBornAccum()
	// The cached ligand self integrals were computed in the reference
	// frame; the scalar flux sums are invariant under rigid motion of
	// both the atoms and the surface, but the collected gradient VECTORS
	// rotate with the pose.
	copyAccum(ligAcc, c.ligSelf)
	for i := range ligAcc.nodeG {
		ligAcc.nodeG[i] = tr.ApplyVector(c.ligSelf.nodeG[i])
	}
	if ligAcc.nodeH != nil {
		// The collected Hessians are rank-2 tensors: H' = R H Rᵀ.
		for i := range ligAcc.nodeH {
			ligAcc.nodeH[i] = tr.R.Mul(c.ligSelf.nodeH[i]).Mul(tr.R.Transpose())
		}
	}
	res.Ops += ligView.bornPass(rec.q).leaves(rec.qLeaves, ligAcc)
	res.LigBorn = make([]float64, lig.NumAtoms())
	ligView.PushIntegralsToAtoms(ligAcc, 0, lig.NumAtoms(), res.LigBorn)

	// ---- Energy: three interactions with shared radius classes ---------
	rmin, rmax := math.Inf(1), 0.0
	for _, r := range res.RecBorn {
		rmin, rmax = math.Min(rmin, r), math.Max(rmax, r)
	}
	for _, r := range res.LigBorn {
		rmin, rmax = math.Min(rmin, r), math.Max(rmax, r)
	}
	recAgg := rec.buildEpolAggregatesRange(res.RecBorn, rmin, rmax)
	ligAgg := ligView.buildEpolAggregatesRange(res.LigBorn, rmin, rmax)

	// rec–rec and lig–lig (ordered pairs within each molecule).
	sum, ops := rec.epolPass(recAgg, recAgg, nil).leaves(rec.aLeaves)
	res.Ops += ops
	ligLeaves := ligTA.Leaves()
	ls, ops := ligView.epolPass(ligAgg, ligAgg, nil).leaves(ligLeaves)
	sum += ls
	res.Ops += ops
	// rec–lig cross terms, counted twice (ordered-pair convention).
	cs, ops := rec.epolPass(recAgg, ligAgg, nil).leaves(ligLeaves)
	sum += 2 * cs
	res.Ops += ops
	res.Epol = -0.5 * Tau(rec.Params.EpsSolvent) * CoulombKcal * sum
	return res, nil
}

func copyAccum(dst, src *bornAccum) {
	copy(dst.nodeS, src.nodeS)
	copy(dst.nodeG, src.nodeG)
	copy(dst.nodeH, src.nodeH)
	copy(dst.atomS, src.atomS)
}
