package gb

import (
	"errors"
	"math"
	"time"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/simmpi"
	"gbpolar/internal/surface"
)

// This file implements the paper's second proposed extension
// (Conclusion: "Distributing data as well as computation is also an
// interesting approach to explore"): instead of every rank replicating
// the whole molecule (§IV-A), each rank owns one atom segment and one
// quadrature segment, builds octrees over just its data, and the
// segments' serialized tree bundles circulate through a ring — every
// rank holds at most its own bundle plus ONE remote bundle at a time, so
// per-rank memory drops from O(data) to O(data/P).
//
// The price is a different decomposition (P local trees instead of one
// global tree), so the realized approximation differs slightly from the
// shared-data drivers while staying inside the same ε error band, and
// the interconnect carries the bundles (P−1 rounds of point-to-point
// traffic priced by the performance model).

// aBundle is a serializable atom segment: a standalone System view over
// the segment's own octree (see segView) plus the segment's Born radii.
type aBundle struct {
	view  *System
	radii []float64
}

// encodeQ serializes the bundle's point data (the tree is rebuilt on the
// receiving side from the spatially sorted points, which is cheap and
// avoids shipping node arrays). Layout: n, then per point
// (pos3, normal3, weight).
func (b *qBundle) encode() []float64 {
	out := make([]float64, 0, 1+7*len(b.pts))
	out = append(out, float64(len(b.pts)))
	// Ship points in octree item order: the receiver's rebuild then sees
	// pre-sorted input and the bundles stay deterministic.
	for _, it := range b.tree.Items {
		q := b.pts[it]
		out = append(out, q.Pos.X, q.Pos.Y, q.Pos.Z,
			q.Normal.X, q.Normal.Y, q.Normal.Z, q.Weight)
	}
	return out
}

func decodeQ(data []float64, leafSize, ord int) *qBundle {
	n := int(data[0])
	pts := make([]surface.QPoint, n)
	for i := 0; i < n; i++ {
		f := data[1+7*i:]
		pts[i] = surface.QPoint{
			Pos:    geom.V(f[0], f[1], f[2]),
			Normal: geom.V(f[3], f[4], f[5]),
			Weight: f[6],
		}
	}
	return buildQBundle(pts, leafSize, ord)
}

// segView wraps one atom segment as a standalone System over its own
// octree, so the Born push and the energy traversals run on it unchanged.
// It has no surface: a segment's Born integrals come from bornPass over
// quadrature bundles.
func segView(params Params, atoms []molecule.Atom) *System {
	mol := &molecule.Molecule{Name: "segment", Atoms: atoms}
	pos := mol.Positions()
	return &System{Params: params, Mol: mol, TA: octree.Build(pos, params.LeafAtoms), atomPos: pos}
}

// encode layout: n, then per atom (pos3, charge, radius).
func (b *aBundle) encode() []float64 {
	atoms := b.view.Mol.Atoms
	out := make([]float64, 0, 1+5*len(atoms))
	out = append(out, float64(len(atoms)))
	for _, it := range b.view.TA.Items {
		p := atoms[it].Pos
		out = append(out, p.X, p.Y, p.Z, atoms[it].Charge, b.radii[it])
	}
	return out
}

// decodeA rebuilds a shipped atom bundle. The wire format carries no
// intrinsic radii, so the view's are zero: the energy traversals read
// only positions, charges and Born radii.
func decodeA(data []float64, params Params) *aBundle {
	n := int(data[0])
	atoms := make([]molecule.Atom, n)
	radii := make([]float64, n)
	for i := 0; i < n; i++ {
		f := data[1+5*i:]
		atoms[i] = molecule.Atom{Pos: geom.V(f[0], f[1], f[2]), Charge: f[3]}
		radii[i] = f[4]
	}
	return &aBundle{view: segView(params, atoms), radii: radii}
}

// atomSeg is one rank's atom segment (global octree item order), carrying
// the real intrinsic radii its Born push needs. Any rank can rebuild any
// segment from the replicated molecule — the simulated analogue of
// re-reading a lost rank's input from disk, which is what makes the
// adoption recovery below possible.
type atomSeg struct {
	idx  []int32 // original atom indices
	view *System
}

func (s *System) atomSeg(P, rank int) *atomSeg {
	alo, ahi := segment(s.NumAtoms(), P, rank)
	idx := s.TA.Items[alo:ahi]
	atoms := make([]molecule.Atom, len(idx))
	for k, ai := range idx {
		atoms[k] = s.Mol.Atoms[ai]
	}
	return &atomSeg{idx: idx, view: segView(s.Params, atoms)}
}

// distQSeg rebuilds rank's quadrature-segment bundle from the replicated
// surface data.
func (s *System) distQSeg(P, rank int) *qBundle {
	qlo, qhi := segment(s.NumQPoints(), P, rank)
	pts := make([]surface.QPoint, 0, qhi-qlo)
	for p := qlo; p < qhi; p++ {
		pts = append(pts, s.Surf.Points[s.TQ.Items[p]])
	}
	return buildQBundle(pts, s.Params.LeafQPoints, s.order())
}

// distABundle reconstructs a segment's atom bundle from the full radii
// vector — how the fault-tolerant energy phase resurrects a dead rank's
// bundle without its owner.
func (s *System) distABundle(P, segRank int, radiiFull []float64) *aBundle {
	seg := s.atomSeg(P, segRank)
	radii := make([]float64, len(seg.idx))
	for k, ai := range seg.idx {
		radii[k] = radiiFull[ai]
	}
	return &aBundle{view: seg.view, radii: radii}
}

// segBorn computes one atom segment's Born radii: its atoms against all P
// quadrature segments, which next(k), k = 0..P−1, supplies (the ring
// delivers them in round order, a local rebuild in segment order), then
// PUSH-INTEGRALS over the segment's own tree. Returns the radii in
// segment order; ops are charged to the calling rank and the near/far
// split is added to pairs.
func (s *System) segBorn(seg *atomSeg, P int, next func(k int) (*qBundle, error), ops *int64, pairs *pairTally) ([]float64, error) {
	view := seg.view
	acc := view.newBornAccum()
	for k := 0; k < P; k++ {
		qb, err := next(k)
		if err != nil {
			return nil, err
		}
		*ops += view.bornPass(qb).leaves(qb.tree.Leaves(), acc)
	}
	radii := make([]float64, view.NumAtoms())
	*ops += view.PushIntegralsToAtoms(acc, 0, view.NumAtoms(), radii)
	pairs.add(acc.pairTally)
	return radii, nil
}

// distSegRadii computes segment segRank's Born radii entirely locally —
// its atoms against every quadrature segment, all rebuilt from replicated
// input. This is the adoption path a survivor runs for a dead rank's
// segment; ops and pairs are charged to the adopter.
func (s *System) distSegRadii(P, segRank int, ops *int64, pairs *pairTally) (*atomSeg, []float64, error) {
	seg := s.atomSeg(P, segRank)
	radii, err := s.segBorn(seg, P, func(q int) (*qBundle, error) { return s.distQSeg(P, q), nil }, ops, pairs)
	return seg, radii, err
}

// segEnergy computes one V segment's energy share: its own×own ordered
// pairs plus the cross direction U→V for each of the other P−1 segments,
// which next(k), k = 1..P−1, supplies. Only that one direction: the
// opposite one is V's turn as a U, so over all segments every ordered
// cross pair is counted exactly once. Aggregates of every segment span
// the shared radius range [rmin, rmax]; tally takes the near/far split.
func (s *System) segEnergy(v *aBundle, P int, rmin, rmax float64, next func(k int) (*aBundle, error), ops *int64, tally *pairTally) (float64, error) {
	leaves := v.view.TA.Leaves()
	vAgg := v.view.buildEpolAggregatesRange(v.radii, rmin, rmax)
	partial, vops := s.epolPass(vAgg, vAgg, tally).leaves(leaves)
	*ops += vops
	for k := 1; k < P; k++ {
		u, err := next(k)
		if err != nil {
			return 0, err
		}
		uAgg := u.view.buildEpolAggregatesRange(u.radii, rmin, rmax)
		us, uops := s.epolPass(uAgg, vAgg, tally).leaves(leaves)
		partial += us
		*ops += uops
	}
	return partial, nil
}

// distSegEnergy computes segment vSeg's V-side energy entirely locally
// from the full radii vector, the other segments taken in ascending
// order. Coverage matches the ring protocol as long as every segment has
// exactly one owner.
func (s *System) distSegEnergy(P, vSeg int, radiiFull []float64, rmin, rmax float64, ops *int64, tally *pairTally) (float64, error) {
	return s.segEnergy(s.distABundle(P, vSeg, radiiFull), P, rmin, rmax, func(k int) (*aBundle, error) {
		u := k - 1
		if u >= vSeg {
			u = k
		}
		return s.distABundle(P, u, radiiFull), nil
	}, ops, tally)
}

// segOwner maps a data segment to the live rank that computes for it: a
// live rank owns its own segment; a lost rank's segment is adopted by a
// survivor chosen round-robin over the agreed live set.
func segOwner(segRank int, lost, live []int) int {
	for i, d := range lost {
		if d == segRank {
			return live[i%len(live)]
		}
	}
	return segRank
}

// distRecvDeadline bounds how long a fault-tolerant ring round waits for
// a peer's bundle before rebuilding it locally. Timing out early is safe
// (the rebuild is exact), just wasted compute.
const distRecvDeadline = 2 * time.Second

// segRun is one rank's state under the Segmented scheme: its own atom
// segment and that segment's Born radii, plus the shared radius range of
// the energy aggregates.
type segRun struct {
	*rankRun
	own        *atomSeg
	radii      []float64 // own segment's Born radii, in segment order
	rmin, rmax float64
}

// segIntegrals is the Segmented integrals phase: the own atom segment
// against every quadrature segment — the own bundle, then one bundle per
// ring round — followed by the push over the segment's own tree.
func (r *rankRun) segIntegrals() (*segRun, error) {
	s := r.s
	sp := r.rec.StartSpan(r.rank, spanBorn)
	g := &segRun{rankRun: r, own: s.atomSeg(r.P, r.rank)}
	ownQ := s.distQSeg(r.P, r.rank)
	ownEnc := ownQ.encode()
	var err error
	var pairs pairTally
	g.radii, err = s.segBorn(g.own, r.P, func(round int) (*qBundle, error) {
		if round == 0 {
			return ownQ, nil
		}
		return r.ringQ(round, ownEnc)
	}, &r.ops[0], &pairs)
	if err != nil {
		return nil, err
	}
	pairs.publish(r.rec, &bornPairNames)
	sp.End()
	return g, nil
}

// ringQ runs one Born ring round: ship the own quadrature bundle to the
// rank `round` places downstream and take the bundle of the rank `round`
// places upstream (transient: it is dropped after its pass). Under the
// fault protocol dropped sends are retried with backoff, a dead
// destination just misses a bundle it can rebuild, and a dead, exhausted,
// too-slow or corrupting source's bundle is rebuilt here from the
// replicated input instead of trusting damaged floats.
func (r *rankRun) ringQ(round int, ownEnc []float64) (*qBundle, error) {
	s := r.s
	dst, src := (r.rank+round)%r.P, (r.rank-round+r.P)%r.P
	if !r.ft {
		if err := r.c.Send(dst, ownEnc); err != nil {
			return nil, err
		}
		data, err := r.c.Recv(src)
		if err != nil {
			return nil, err
		}
		return decodeQ(data, s.Params.LeafQPoints, s.order()), nil
	}
	var lostErr *simmpi.RankLostError
	if err := sendRetry(r.c, dst, ownEnc, r.cfg); err != nil &&
		!errors.As(err, &lostErr) && !errors.Is(err, simmpi.ErrDropped) {
		return nil, err
	}
	data, err := r.c.RecvTimeout(src, distRecvDeadline)
	if err != nil {
		if !errors.As(err, &lostErr) && !errors.Is(err, simmpi.ErrTimeout) &&
			!errors.Is(err, simmpi.ErrCorrupt) {
			return nil, err
		}
		r.recovered = true
		return s.distQSeg(r.P, src), nil
	}
	return decodeQ(data, s.Params.LeafQPoints, s.order()), nil
}

// gatherRadii assembles the full radii vector on every rank from (atom
// index, radius) pairs. Under the fault protocol survivors also adopt the
// lost ranks' segments, recomputing their radii from replicated input,
// and the gather repeats until membership is stable: the energy phase
// reconstructs bundles from the full vector.
func (g *segRun) gatherRadii(radii []float64) error {
	s := g.s
	var all []float64
	err := g.heal(spanPush, func() error {
		// Own segment plus up to len(lost) adopted segments of comparable
		// size.
		flat := make([]float64, 0, 2*len(g.radii)*(1+len(g.lost)))
		flat = appendPairs(flat, g.own.idx, g.radii)
		var adopted pairTally
		for _, d := range g.lost {
			if segOwner(d, g.lost, g.live) != g.rank {
				continue
			}
			seg, rd, err := s.distSegRadii(g.P, d, &g.ops[0], &adopted)
			if err != nil {
				return err
			}
			flat = appendPairs(flat, seg.idx, rd)
		}
		// Adopted segments' Born work counts; .rank samples own segments.
		g.rec.Count(bornPairNames[0], adopted.near)
		g.rec.Count(bornPairNames[1], adopted.far)
		var err error
		all, err = g.c.Allgatherv(flat)
		return err
	}, nil)
	if err != nil {
		return err
	}
	if len(g.lost) > 0 {
		g.recovered = true
	}
	scatterPairs(radii, all)
	return nil
}

// appendPairs appends (atom index, radius) pairs for one segment.
func appendPairs(dst []float64, idx []int32, radii []float64) []float64 {
	for k, r := range radii {
		dst = append(dst, float64(idx[k]), r)
	}
	return dst
}

// radiusRange agrees on the radius range every segment's energy
// aggregates span. Under the fault protocol the full vector is local, so
// the range needs no collective (and no dead-rank gap).
func (g *segRun) radiusRange(radiiFull []float64) error {
	if g.ft {
		g.rmin, g.rmax = minMax(radiiFull)
		return nil
	}
	lmin, lmax := minMax(g.radii)
	mins, err := g.c.Allreduce([]float64{lmin}, simmpi.Min)
	if err != nil {
		return err
	}
	maxs, err := g.c.Allreduce([]float64{lmax}, simmpi.Max)
	if err != nil {
		return err
	}
	g.rmin, g.rmax = mins[0], maxs[0]
	return nil
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// energy is the Segmented energy phase; it returns the raw pair sum.
// Without faults the own atom bundle circulates through the ring like the
// quadrature bundles did. Under the fault protocol there is no ring
// traffic: every segment, dead owners' included, is assigned to exactly
// one live rank (segOwner), which reconstructs the bundles it needs from
// the full radii vector — deaths cannot corrupt pair coverage, and the
// heal loop re-assigns on further losses.
func (g *segRun) energy(radiiFull []float64) (float64, error) {
	s := g.s
	var sum float64
	err := g.heal(spanEpol, func() error {
		partial := 0.0
		var tally pairTally
		if g.ft {
			for seg := 0; seg < g.P; seg++ {
				if segOwner(seg, g.lost, g.live) != g.rank {
					continue
				}
				e, err := s.distSegEnergy(g.P, seg, radiiFull, g.rmin, g.rmax, &g.ops[0], &tally)
				if err != nil {
					return err
				}
				partial += e
			}
		} else {
			own := &aBundle{view: g.own.view, radii: g.radii}
			ownEnc := own.encode()
			var err error
			partial, err = s.segEnergy(own, g.P, g.rmin, g.rmax, func(round int) (*aBundle, error) {
				dst, src := (g.rank+round)%g.P, (g.rank-round+g.P)%g.P
				if err := g.c.Send(dst, ownEnc); err != nil {
					return nil, err
				}
				data, err := g.c.Recv(src)
				if err != nil {
					return nil, err
				}
				return decodeA(data, s.Params), nil
			}, &g.ops[0], &tally)
			if err != nil {
				return err
			}
		}
		tally.publish(g.rec, &epolPairNames)
		out, err := g.c.Allreduce([]float64{partial}, simmpi.Sum)
		if err != nil {
			return err
		}
		sum = out[0]
		return nil
	}, func(d int) []int32 {
		// The V-side atoms of every segment the dead rank owned.
		var atoms []int32
		for seg := 0; seg < g.P; seg++ {
			if segOwner(seg, g.lost, g.live) == d {
				alo, ahi := segment(s.NumAtoms(), g.P, seg)
				//lint:ignore hotalloc cold degrade path; the adopted-atom count is unknown until the ownership walk completes
				atoms = append(atoms, s.TA.Items[alo:ahi]...)
			}
		}
		return atoms
	})
	return sum, err
}
