// Package molecule defines atoms and molecules, the synthetic workload
// generators that stand in for the paper's benchmark inputs (ZDock
// Benchmark-2.0 proteins, the Blue Tongue Virus, and the Cucumber Mosaic
// Virus shell), and simple file I/O (PQR and XYZRQ formats).
package molecule

import (
	"errors"
	"fmt"
	"math"

	"gbpolar/internal/geom"
)

// ErrInvalidInput is the sentinel every molecule validation failure
// wraps: errors.Is(err, ErrInvalidInput) distinguishes a bad input (a
// caller/client mistake — the serving layer's 400, gbpol's exit 2) from
// a run failure, without matching message strings.
var ErrInvalidInput = errors.New("molecule: invalid input")

// InputError is a typed validation failure: which molecule, which atom
// (-1 when not atom-specific), which field, and why. NaN/Inf
// coordinates, non-positive radii, and duplicate atom indices used to
// flow into the kernels and surface as garbage Epol; they now stop
// here, where the caller can still say "your input is wrong" instead
// of "the run failed".
type InputError struct {
	// Molecule is the molecule's name ("" when unnamed).
	Molecule string
	// Atom is the offending atom's index, -1 when the error is not
	// atom-specific (e.g. a duplicate-index pair names the second atom).
	Atom int
	// Field names what was invalid: "position", "radius", "charge",
	// "index", "atoms", or "record" (a malformed input line).
	Field string
	// Msg is the human-readable detail.
	Msg string
}

// Error implements error.
func (e *InputError) Error() string {
	if e.Atom < 0 {
		return fmt.Sprintf("molecule %q: invalid %s: %s", e.Molecule, e.Field, e.Msg)
	}
	return fmt.Sprintf("molecule %q: atom %d: invalid %s: %s", e.Molecule, e.Atom, e.Field, e.Msg)
}

// Unwrap makes errors.Is(err, ErrInvalidInput) hold.
func (e *InputError) Unwrap() error { return ErrInvalidInput }

// Atom is a single atom: position (Å), intrinsic van der Waals radius (Å)
// and partial charge (elementary charges).
type Atom struct {
	Pos    geom.Vec3
	Radius float64
	Charge float64
}

// Molecule is a named collection of atoms.
type Molecule struct {
	Name  string
	Atoms []Atom
}

// NumAtoms returns the number of atoms.
func (m *Molecule) NumAtoms() int { return len(m.Atoms) }

// Positions returns a freshly allocated slice of atom positions.
func (m *Molecule) Positions() []geom.Vec3 {
	ps := make([]geom.Vec3, len(m.Atoms))
	for i, a := range m.Atoms {
		ps[i] = a.Pos
	}
	return ps
}

// Bounds returns the AABB of the atom centers (not inflated by radii).
func (m *Molecule) Bounds() geom.AABB {
	b := geom.EmptyAABB()
	for _, a := range m.Atoms {
		b = b.ExtendPoint(a.Pos)
	}
	return b
}

// TotalCharge returns the sum of partial charges.
func (m *Molecule) TotalCharge() float64 {
	q := 0.0
	for _, a := range m.Atoms {
		q += a.Charge
	}
	return q
}

// MaxRadius returns the largest atomic radius (0 for an empty molecule).
func (m *Molecule) MaxRadius() float64 {
	r := 0.0
	for _, a := range m.Atoms {
		if a.Radius > r {
			r = a.Radius
		}
	}
	return r
}

// Clone returns a deep copy of the molecule.
func (m *Molecule) Clone() *Molecule {
	c := &Molecule{Name: m.Name, Atoms: make([]Atom, len(m.Atoms))}
	copy(c.Atoms, m.Atoms)
	return c
}

// ApplyTransform returns a copy of the molecule with every atom position
// mapped through tr. Radii and charges are unchanged. The paper reuses a
// molecule's octree under rigid motion for docking scans (Section IV-C);
// ApplyTransform provides the moved coordinates.
func (m *Molecule) ApplyTransform(tr geom.Transform) *Molecule {
	c := m.Clone()
	for i := range c.Atoms {
		c.Atoms[i].Pos = tr.Apply(c.Atoms[i].Pos)
	}
	return c
}

// Merge returns a new molecule containing the atoms of both molecules, as
// in a receptor–ligand complex.
func Merge(name string, a, b *Molecule) *Molecule {
	out := &Molecule{Name: name, Atoms: make([]Atom, 0, len(a.Atoms)+len(b.Atoms))}
	out.Atoms = append(out.Atoms, a.Atoms...)
	out.Atoms = append(out.Atoms, b.Atoms...)
	return out
}

// Validate checks structural invariants: finite coordinates, positive
// radii, finite charges. It returns the first violation found as a
// typed *InputError wrapping ErrInvalidInput.
func (m *Molecule) Validate() error {
	for i, a := range m.Atoms {
		if !a.Pos.IsFinite() {
			return &InputError{Molecule: m.Name, Atom: i, Field: "position",
				Msg: fmt.Sprintf("non-finite coordinates %v", a.Pos)}
		}
		if a.Radius <= 0 || math.IsNaN(a.Radius) || math.IsInf(a.Radius, 0) {
			return &InputError{Molecule: m.Name, Atom: i, Field: "radius",
				Msg: fmt.Sprintf("%v is not a positive finite radius", a.Radius)}
		}
		if math.IsNaN(a.Charge) || math.IsInf(a.Charge, 0) {
			return &InputError{Molecule: m.Name, Atom: i, Field: "charge",
				Msg: fmt.Sprintf("%v is not a finite charge", a.Charge)}
		}
	}
	return nil
}
