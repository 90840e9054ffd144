// Package dock implements the drug-design workload the paper motivates
// (§I, §IV-C): scoring ligand placements against a receptor by the change
// in GB polarization energy. A Scorer caches the receptor's solo energy
// and scores arbitrary rigid poses of a ligand; pose generators enumerate
// approach rings, spheres and local refinements; scoring parallelizes
// over poses with the work-stealing pool.
package dock

import (
	"fmt"
	"math"
	"sort"

	"gbpolar/internal/gb"
	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
)

// Pose is one rigid placement of the ligand.
type Pose struct {
	// Transform maps ligand coordinates into the receptor frame.
	Transform geom.Transform
	// Label identifies the pose in results (generator-assigned).
	Label string
}

// Score is a scored pose.
type Score struct {
	Pose Pose
	// DeltaEpol = Epol(complex) − Epol(receptor) − Epol(ligand), in
	// kcal/mol: negative values mean the complex is better solvated
	// than the parts (favorable polar desolvation).
	DeltaEpol float64
	// Clash reports steric overlap (atom centers closer than the sum of
	// half radii); clashing poses carry +Inf DeltaEpol.
	Clash bool
}

// Scorer scores ligand poses against a fixed receptor.
type Scorer struct {
	receptor  *molecule.Molecule
	ligand    *molecule.Molecule
	params    gb.Params
	surfCfg   surface.Config
	recEnergy float64
	ligEnergy float64
	recRadius float64 // enclosing-ball radius of the receptor
	recCenter geom.Vec3
	// complex is the prepared octree-reuse fast path (§IV-C): both
	// molecules' trees, surfaces and self Born integrals are built once
	// and every pose pays only the cross terms.
	complex *gb.Complex
}

// NewScorer prepares a scorer: it builds both molecules' systems once
// (Fig. 4 pipelines at the given params) and caches their solo energies
// and the octree-reuse complex.
func NewScorer(receptor, ligand *molecule.Molecule, params gb.Params, surfCfg surface.Config) (*Scorer, error) {
	if receptor.NumAtoms() == 0 || ligand.NumAtoms() == 0 {
		return nil, fmt.Errorf("dock: empty receptor or ligand")
	}
	s := &Scorer{
		receptor: receptor,
		ligand:   ligand,
		params:   params,
		surfCfg:  surfCfg,
	}
	recSys, err := s.systemOf(receptor)
	if err != nil {
		return nil, err
	}
	ligSys, err := s.systemOf(ligand)
	if err != nil {
		return nil, err
	}
	if s.recEnergy, err = serialEpol(recSys); err != nil {
		return nil, err
	}
	if s.ligEnergy, err = serialEpol(ligSys); err != nil {
		return nil, err
	}
	if s.complex, err = gb.NewComplex(recSys, ligSys); err != nil {
		return nil, err
	}
	s.recCenter, s.recRadius = geom.EnclosingBall(receptor.Positions())
	return s, nil
}

// systemOf prepares one molecule's system.
func (s *Scorer) systemOf(m *molecule.Molecule) (*gb.System, error) {
	surf, err := surface.Build(m, s.surfCfg)
	if err != nil {
		return nil, err
	}
	return gb.NewSystem(m, surf, s.params)
}

// ReceptorEnergy returns the cached receptor Epol.
func (s *Scorer) ReceptorEnergy() float64 { return s.recEnergy }

// LigandEnergy returns the cached ligand Epol.
func (s *Scorer) LigandEnergy() float64 { return s.ligEnergy }

// epolOf runs the serial octree pipeline on one molecule.
func (s *Scorer) epolOf(m *molecule.Molecule) (float64, error) {
	surf, err := surface.Build(m, s.surfCfg)
	if err != nil {
		return 0, err
	}
	sys, err := gb.NewSystem(m, surf, s.params)
	if err != nil {
		return 0, err
	}
	return serialEpol(sys)
}

// serialEpol runs the serial octree driver on a prepared system.
func serialEpol(sys *gb.System) (float64, error) {
	res, err := sys.Run(gb.RunSpec{})
	if err != nil {
		return 0, err
	}
	return res.Epol, nil
}

// ScorePose scores one pose by rebuilding the complex from scratch
// (surface re-culled at the interface — the most faithful but slowest
// evaluation).
func (s *Scorer) ScorePose(p Pose) (Score, error) {
	placed := s.ligand.ApplyTransform(p.Transform)
	if s.clashes(placed) {
		return Score{Pose: p, DeltaEpol: math.Inf(1), Clash: true}, nil
	}
	complexMol := molecule.Merge("complex", s.receptor, placed)
	e, err := s.epolOf(complexMol)
	if err != nil {
		return Score{}, err
	}
	return Score{Pose: p, DeltaEpol: e - s.recEnergy - s.ligEnergy}, nil
}

// FastScorePose scores one pose through the octree-reuse path (§IV-C):
// no tree or surface rebuilds — the scheme the paper proposes for
// placing a ligand at thousands of positions. Slightly less faithful
// than ScorePose at contact distance (the frozen surfaces skip interface
// re-culling) and about 1.6× cheaper per pose: the perfbench dock-scan
// workload measures fast/full time ratios of 0.54–0.66.
func (s *Scorer) FastScorePose(p Pose) (Score, error) {
	placed := s.ligand.ApplyTransform(p.Transform)
	if s.clashes(placed) {
		return Score{Pose: p, DeltaEpol: math.Inf(1), Clash: true}, nil
	}
	res, err := s.complex.Epol(p.Transform)
	if err != nil {
		return Score{}, err
	}
	return Score{Pose: p, DeltaEpol: res.Epol - s.recEnergy - s.ligEnergy}, nil
}

// FastScoreAll is ScoreAll through the octree-reuse path.
func (s *Scorer) FastScoreAll(pool *sched.Pool, poses []Pose) ([]Score, error) {
	return s.scoreAll(pool, poses, s.FastScorePose)
}

// clashes reports hard steric overlap between the placed ligand and the
// receptor (centers closer than 55% of the radius sum — bonded-distance
// territory).
func (s *Scorer) clashes(placed *molecule.Molecule) bool {
	for _, la := range placed.Atoms {
		// Quick reject against the receptor ball.
		if la.Pos.Dist(s.recCenter) > s.recRadius+la.Radius+2 {
			continue
		}
		for _, ra := range s.receptor.Atoms {
			minD := 0.55 * (la.Radius + ra.Radius)
			if la.Pos.Dist2(ra.Pos) < minD*minD {
				return true
			}
		}
	}
	return false
}

// ScoreAll scores poses concurrently on the given pool (nil: serial) and
// returns results sorted best (most negative ΔEpol) first.
func (s *Scorer) ScoreAll(pool *sched.Pool, poses []Pose) ([]Score, error) {
	return s.scoreAll(pool, poses, s.ScorePose)
}

func (s *Scorer) scoreAll(pool *sched.Pool, poses []Pose, score func(Pose) (Score, error)) ([]Score, error) {
	out := make([]Score, len(poses))
	errs := make([]error, len(poses))
	if pool == nil {
		for i, p := range poses {
			out[i], errs[i] = score(p)
		}
	} else {
		pool.ParallelRange(len(poses), 1, func(w *sched.Worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i], errs[i] = score(poses[i])
			}
		})
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].DeltaEpol < out[j].DeltaEpol })
	return out, nil
}

// RingPoses places the ligand on a ring of `count` approach directions in
// the z=0 plane at the given clearance beyond the receptor surface, each
// pose also rotated about the approach axis.
func (s *Scorer) RingPoses(count int, clearance float64) []Pose {
	_, ligRadius := geom.EnclosingBall(s.ligand.Positions())
	dist := s.recRadius + ligRadius + clearance
	poses := make([]Pose, 0, count)
	for k := 0; k < count; k++ {
		angle := 2 * math.Pi * float64(k) / float64(count)
		dir := geom.V(math.Cos(angle), math.Sin(angle), 0)
		tr := geom.Translate(s.recCenter.Add(dir.Scale(dist))).
			Compose(geom.Rotate(geom.V(0, 0, 1), angle))
		poses = append(poses, Pose{Transform: tr, Label: fmt.Sprintf("ring-%d", k)})
	}
	return poses
}

// SpherePoses places the ligand on a Fibonacci sphere of `count` approach
// directions at the given clearance.
func (s *Scorer) SpherePoses(count int, clearance float64) []Pose {
	_, ligRadius := geom.EnclosingBall(s.ligand.Positions())
	dist := s.recRadius + ligRadius + clearance
	golden := math.Pi * (3 - math.Sqrt(5))
	poses := make([]Pose, 0, count)
	for k := 0; k < count; k++ {
		z := 1 - 2*(float64(k)+0.5)/float64(count)
		r := math.Sqrt(1 - z*z)
		phi := golden * float64(k)
		dir := geom.V(r*math.Cos(phi), r*math.Sin(phi), z)
		tr := geom.Translate(s.recCenter.Add(dir.Scale(dist))).
			Compose(geom.Rotate(dir, phi))
		poses = append(poses, Pose{Transform: tr, Label: fmt.Sprintf("sphere-%d", k)})
	}
	return poses
}

// Refine generates `count` jittered variants of a pose within the given
// translational radius and rotational spread (radians), deterministic in
// the pose label.
func Refine(base Pose, count int, transRadius, rotSpread float64) []Pose {
	// Deterministic low-discrepancy jitter from the index.
	poses := make([]Pose, 0, count)
	for k := 0; k < count; k++ {
		u := frac(float64(k)*0.754877666 + 0.1)
		v := frac(float64(k)*0.569840291 + 0.3)
		w := frac(float64(k)*0.362437104 + 0.7)
		shift := geom.V(u-0.5, v-0.5, w-0.5).Scale(2 * transRadius)
		axis := geom.V(v-0.5, w-0.5, u-0.5)
		rot := (u - 0.5) * 2 * rotSpread
		tr := geom.Translate(shift).Compose(base.Transform).Compose(geom.Rotate(axis, rot))
		poses = append(poses, Pose{Transform: tr, Label: fmt.Sprintf("%s/refine-%d", base.Label, k)})
	}
	return poses
}

func frac(x float64) float64 { return x - math.Floor(x) }
