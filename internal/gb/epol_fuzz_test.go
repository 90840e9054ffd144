package gb_test

import (
	"math"
	"testing"

	"gbpolar/internal/gb"
	"gbpolar/internal/surface"
	"gbpolar/internal/tune"
)

// FuzzEpolVsNaive checks the octree energy pass against the exact O(M²)
// oracle on fuzz-generated molecules, both evaluated on the same radii
// (the intrinsic ones, so the surface plays no part): the octree error
// must stay inside the tuner's priced relative bound at the default
// accuracy.
func FuzzEpolVsNaive(f *testing.F) {
	f.Add([]byte{0, 0, 0, 64, 255, 4, 0, 0, 64, 0})
	// Two 16-atom clusters 90 Å apart: their internal nodes meet in the
	// far field.
	var clusters []byte
	for i := 0; i < 32; i++ {
		c := byte(0)
		if i >= 16 {
			c = 120
		}
		clusters = append(clusters, c+byte(i%4)*4, c+byte(i/4%4)*4, c, byte(17*i), byte(37*i))
	}
	f.Add(clusters)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := gb.DecodeFuzzMolecule(data)
		if len(m.Atoms) == 0 {
			return
		}
		surf, err := surface.Build(m, surface.DefaultConfig())
		if err != nil {
			return
		}
		s, err := gb.NewSystem(m, surf, gb.DefaultParams())
		if err != nil {
			return // a molecule the system rejects is not this property's business
		}
		radii := make([]float64, len(m.Atoms))
		for i, a := range m.Atoms {
			radii[i] = a.Radius
		}
		oct, _ := s.Epol(radii)
		naive, _ := s.NaiveEpol(radii)
		if bound := tune.RelErrorBound(s.Params.Accuracy) * math.Abs(naive); math.Abs(oct-naive) > bound {
			t.Fatalf("%d atoms: octree %v vs naive %v: error %v exceeds bound %v",
				len(m.Atoms), oct, naive, math.Abs(oct-naive), bound)
		}
	})
}
