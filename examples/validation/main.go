// Validation ladder: climb the model hierarchy of the paper's
// introduction on one small molecule — finite-difference Poisson
// (the expensive reference), exact GB with surface-r⁶ radii (Eq. 2/4),
// and the octree-approximated GB at several ε — and watch cost fall as
// the approximations stack while the energy stays anchored.
//
// Run with:
//
//	go run ./examples/validation
package main

import (
	"fmt"
	"log"
	"time"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/pb"
	"gbpolar/internal/surface"
)

func main() {
	mol := molecule.Exactly(molecule.Globule("val", 150, 5), 150, 5)
	fmt.Printf("molecule: %d atoms\n\n", mol.NumAtoms())
	fmt.Println("model                              Epol (kcal/mol)     time")

	// Rung 1: Poisson reference (the §I gold standard).
	start := time.Now()
	pbRes, err := pb.Solve(mol, pb.Config{Dim: 81})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Poisson FD (81³ grid, %4d sweeps)  %12.2f   %8v\n",
		pbRes.Iterations, pbRes.Epol, time.Since(start).Round(time.Millisecond))

	// Rung 2: exact GB.
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sys, err := gb.NewSystem(mol, surf, gb.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	radii, _ := sys.NaiveBornRadiiR6()
	exact, _ := sys.NaiveEpol(radii)
	fmt.Printf("GB exact (naive Eq. 2/4)           %12.2f   %8v\n",
		exact, time.Since(start).Round(time.Microsecond))

	// Rung 3: octree-approximated GB at increasing ε.
	for _, eps := range []float64{0.1, 0.5, 0.9} {
		params := gb.DefaultParams()
		params.Accuracy.EpsBorn = eps
		params.Accuracy.EpsEpol = eps
		s2, err := gb.NewSystem(mol, surf, params)
		if err != nil {
			log.Fatal(err)
		}
		start = time.Now()
		res, err := s2.Run(gb.RunSpec{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("GB octree ε = %.1f                  %12.2f   %8v\n",
			eps, res.Epol, time.Since(start).Round(time.Microsecond))
	}

	fmt.Println("\neach rung trades a little fidelity for orders of magnitude in cost —")
	fmt.Println("the progression that motivates the paper (§I).")
}
