package gb

import (
	"math"
	"slices"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// fuzzMolecule decodes up to 32 atoms, five bytes each: x, y, z as signed
// bytes in 0.75 Å steps (a ±96 Å box, wide enough for far node pairs),
// radius 1–3 Å and charge in [−1, 1].
func fuzzMolecule(data []byte) *molecule.Molecule {
	m := &molecule.Molecule{Name: "fuzz"}
	for len(data) >= 5 && len(m.Atoms) < 32 {
		b := data[:5]
		data = data[5:]
		m.Atoms = append(m.Atoms, molecule.Atom{
			Pos:    geom.V(0.75*float64(int8(b[0])), 0.75*float64(int8(b[1])), 0.75*float64(int8(b[2]))),
			Radius: 1 + float64(b[3])/128,
			Charge: float64(b[4])/127.5 - 1,
		})
	}
	return m
}

// DecodeFuzzMolecule exports fuzzMolecule to the external test package.
var DecodeFuzzMolecule = fuzzMolecule

// clippedEpolSum runs the energy pass once per item range between
// consecutive cuts (0 and n included) and sums the raw results.
func clippedEpolSum(s *System, agg *epolAggregates, cuts []int) float64 {
	sum := 0.0
	for i := 0; i+1 < len(cuts); i++ {
		part, _ := s.epolPass(agg, agg, nil).within(cuts[i], cuts[i+1]).leaves(s.aLeaves)
		sum += part
	}
	return sum
}

// FuzzEpolRanges checks the clipped-target energy walk of the atom
// division: on a fuzz-generated molecule (intrinsic radii), cut into
// item ranges at fuzz-chosen points, the per-range energies sum to the
// whole walk's within 1e-12 relative, at the expansion order and math
// mode the mode byte selects (order mode%3, approximate math if mode&4).
func FuzzEpolRanges(f *testing.F) {
	f.Add([]byte{0, 0, 0, 64, 255, 4, 0, 0, 64, 0, 0, 5, 2, 10, 200}, []byte{1}, uint8(1))
	var clusters []byte
	for i := 0; i < 32; i++ {
		c := byte(0)
		if i >= 16 {
			c = 120
		}
		clusters = append(clusters, c+byte(i%4)*4, c+byte(i/4%4)*4, c, byte(17*i), byte(37*i))
	}
	f.Add(clusters, []byte{3, 9, 17, 30}, uint8(2))
	f.Add(clusters, []byte{5, 6, 7, 8, 9, 10, 11, 12}, uint8(4))
	f.Fuzz(func(t *testing.T, data, cutBytes []byte, mode uint8) {
		m := fuzzMolecule(data)
		if len(m.Atoms) == 0 {
			return
		}
		surf, err := surface.Build(m, surface.DefaultConfig())
		if err != nil {
			return
		}
		p := DefaultParams()
		p.Accuracy.Order = int(mode % 3)
		if mode&4 != 0 {
			p.Math = ApproxMath
		}
		s, err := NewSystem(m, surf, p)
		if err != nil {
			return
		}
		n := len(m.Atoms)
		radii := make([]float64, n)
		for i, a := range m.Atoms {
			radii[i] = a.Radius
		}
		cuts := []int{0, n}
		for _, c := range cutBytes {
			cuts = append(cuts, int(c)%(n+1))
		}
		slices.Sort(cuts)
		agg := s.buildEpolAggregates(radii)
		whole, _ := s.epolPass(agg, agg, nil).leaves(s.aLeaves)
		got := clippedEpolSum(s, agg, cuts)
		// Absolute floor: a near-neutral molecule's sum can cancel far
		// below the terms' rounding.
		if diff := math.Abs(got - whole); diff > 1e-12*math.Max(math.Abs(whole), 1e-3) {
			t.Fatalf("%d atoms, cuts %v: clipped sum %v vs whole %v (diff %v)", n, cuts, got, whole, diff)
		}
	})
}
