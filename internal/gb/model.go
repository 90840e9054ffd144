// Package gb implements the paper's core contribution: Generalized-Born
// polarization energy with surface-based r⁶ Born radii, both exactly
// (naïve quadratic evaluation of Eqs. 2–4) and with the octree-based
// Greengard–Rokhlin near–far approximation of Figures 2–3, in serial,
// shared-memory (work stealing), distributed-memory (message passing) and
// hybrid flavors.
package gb

import (
	"math"
)

// CoulombKcal is the electrostatic constant in kcal·Å/(mol·e²): energies
// are returned in kcal/mol with distances in Å and charges in e.
const CoulombKcal = 332.0636

// DefaultSolventDielectric is water at 300 K, the ε_solv of Eq. 2.
const DefaultSolventDielectric = 80.0

// Tau returns the solvent prefactor τ = 1 − 1/ε_solv of Eq. 2.
func Tau(epsSolvent float64) float64 { return 1 - 1/epsSolvent }

// MathMode selects exact or approximate math for the inner kernels
// (§V-C: "We used approximate math for computing square root and power
// functions", ~1.42× faster with a small energy shift).
type MathMode int

const (
	// ExactMath uses the standard library throughout.
	ExactMath MathMode = iota
	// ApproxMath replaces 1/sqrt and exp with fast polynomial/bit-trick
	// approximations in the pair kernels.
	ApproxMath
)

// fGB is the Still pairwise denominator
// f = sqrt(r² + R_i R_j exp(−r²/(4 R_i R_j))) of Eq. 2.
func fGB(r2, RiRj float64) float64 {
	return math.Sqrt(r2 + RiRj*math.Exp(-r2/(4*RiRj)))
}

// invFGB returns 1/f_GB with exact math.
func invFGB(r2, RiRj float64) float64 {
	return 1 / fGB(r2, RiRj)
}

// invFGBApprox returns 1/f_GB using fast exp and fast inverse sqrt.
func invFGBApprox(r2, RiRj float64) float64 {
	return fastInvSqrt(r2 + RiRj*fastExp(-r2/(4*RiRj)))
}

// PairTerm returns one Eq. 2 summand q_i q_j / f_GB(r², R_iR_j) with exact
// math. Exported for the baseline package emulations, which share the GB
// energy form and differ only in how they obtain Born radii.
func PairTerm(qq, r2, RiRj float64) float64 { return qq * invFGB(r2, RiRj) }

// pairEnergyKernel returns the function computing q_i q_j / f_GB for the
// selected math mode. Isolating the choice here keeps the hot loops
// branch-free.
func pairEnergyKernel(mode MathMode) func(qq, r2, RiRj float64) float64 {
	if mode == ApproxMath {
		return func(qq, r2, RiRj float64) float64 { return qq * invFGBApprox(r2, RiRj) }
	}
	return func(qq, r2, RiRj float64) float64 { return qq * invFGB(r2, RiRj) }
}

// fastInvSqrt computes 1/sqrt(x) with the float64 bit trick refined by a
// single Newton iteration: relative error ≈ 2e-3 — the same
// speed-for-digits trade the paper's "approximate math for computing
// square root and power functions" makes (§V-C).
func fastInvSqrt(x float64) float64 {
	if x <= 0 {
		return math.Inf(1)
	}
	i := math.Float64bits(x)
	i = 0x5fe6eb50c7b537a9 - i>>1
	y := math.Float64frombits(i)
	y = y * (1.5 - 0.5*x*y*y)
	return y
}

// fastExp computes e^x via the 2^k bit-shift construction with a degree-5
// minimax polynomial on the fractional part: relative error ≈ 1e-7 for
// the x ≤ 0 arguments the GB kernel produces.
func fastExp(x float64) float64 {
	if x < -700 {
		return 0
	}
	if x > 700 {
		return math.Inf(1)
	}
	// e^x = 2^(x·log2(e)) = 2^k · 2^f with k integer, f ∈ [-0.5, 0.5].
	const log2e = 1.4426950408889634
	const ln2 = 0.6931471805599453
	t := x * log2e
	k := math.Floor(t + 0.5)
	f := (t - k) * ln2 // e^x = 2^k · e^f, f ∈ [−ln2/2, ln2/2]
	// Degree-3 Taylor for e^f on the small interval (|f| ≤ ln2/2):
	// truncation error ≈ 6e-5 relative — crude and fast, like the
	// paper's approximate power functions.
	p := 1 + f*(1+f*(0.5+f*(1.0/6)))
	return math.Ldexp(p, int(k))
}

// bornRadiusFromIntegral converts the accumulated surface r⁶ integral
// s = Σ w_q (p_q−p_a)·n_q/|p_q−p_a|⁶ into a Born radius via
// 1/R³ = s/(4π) — or, for the r⁴ (Coulomb-field, Eq. 3) form, via
// 1/R = s/(4π) — clamped below by the atom's intrinsic radius (Fig. 2's
// "max(r_a, ...)") and above by maxBornRadius when the integral is
// non-positive (an atom seeing no surface flux is effectively bulk).
func bornRadiusFromIntegral(s, intrinsic float64, r4 bool) float64 {
	if s <= 0 {
		return maxBornRadius
	}
	r := 4 * math.Pi / s
	if !r4 {
		r = math.Cbrt(r)
	}
	if r < intrinsic {
		return intrinsic
	}
	if r > maxBornRadius {
		return maxBornRadius
	}
	return r
}

// maxBornRadius caps Born radii: beyond ~1000 Å an atom is bulk solvent
// for every practical purpose and the cap keeps the class histograms of
// APPROX-Epol bounded.
const maxBornRadius = 1000.0
