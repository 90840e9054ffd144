package molecule

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gbpolar/internal/geom"
)

// WriteXYZRQ writes the molecule in the simple whitespace-separated XYZRQ
// format: a header line with the atom count and name, then one
// "x y z radius charge" line per atom.
func WriteXYZRQ(w io.Writer, m *Molecule) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %s\n", len(m.Atoms), m.Name); err != nil {
		return err
	}
	for _, a := range m.Atoms {
		if _, err := fmt.Fprintf(bw, "%.6f %.6f %.6f %.4f %.6f\n",
			a.Pos.X, a.Pos.Y, a.Pos.Z, a.Radius, a.Charge); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadXYZRQ parses the XYZRQ format written by WriteXYZRQ.
func ReadXYZRQ(r io.Reader) (*Molecule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	// Parse failures are the input's fault: typed, like Validate's.
	var name string
	bad := func(atom int, field, format string, args ...any) error {
		return &InputError{Molecule: name, Atom: atom, Field: field, Msg: "xyzrq " + fmt.Sprintf(format, args...)}
	}
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, bad(-1, "atoms", "input is empty")
	}
	header := strings.Fields(sc.Text())
	if len(header) < 1 {
		return nil, bad(-1, "atoms", "header has no atom count")
	}
	n, err := strconv.Atoi(header[0])
	if err != nil || n < 0 {
		return nil, bad(-1, "atoms", "bad atom count %q in header", header[0])
	}
	name = "unnamed"
	if len(header) > 1 {
		name = strings.Join(header[1:], " ")
	}
	// No capacity from n: the header is untrusted, and the count check
	// below rejects any mismatch.
	m := &Molecule{Name: name}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 5 {
			return nil, bad(len(m.Atoms), "record", "line %d: want 5 fields (x y z radius charge), got %d", line, len(f))
		}
		var vals [5]float64
		for i, s := range f {
			vals[i], err = strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, bad(len(m.Atoms), xyzrqFields[i], "line %d field %d: %v", line, i+1, err)
			}
		}
		m.Atoms = append(m.Atoms, Atom{
			Pos:    geom.V(vals[0], vals[1], vals[2]),
			Radius: vals[3],
			Charge: vals[4],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(m.Atoms) != n {
		return nil, bad(-1, "atoms", "header says %d atoms, file has %d", n, len(m.Atoms))
	}
	return m, m.Validate()
}

// xyzrqFields names the InputError field of each XYZRQ record column.
var xyzrqFields = [5]string{"position", "position", "position", "radius", "charge"}

// WritePQR writes the molecule in PQR format (the PDB-like format with
// charge and radius in the occupancy/B-factor columns, as consumed by
// APBS and most GB tools). Atom metadata is synthesized (all atoms are
// written as carbon in residue GLY of chain A).
func WritePQR(w io.Writer, m *Molecule) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "REMARK  gbpolar molecule %s\n", m.Name); err != nil {
		return err
	}
	for i, a := range m.Atoms {
		serial := i + 1
		resSeq := i/10 + 1
		// Serials are NOT wrapped at the PDB column limit: this is the
		// whitespace dialect, and wrapped serials would collide — which
		// ReadPQR now rejects as duplicate atom indices.
		if _, err := fmt.Fprintf(bw,
			"ATOM  %5d  C   GLY A%4d    %8.3f%8.3f%8.3f %7.4f %6.4f\n",
			serial, resSeq%10000, a.Pos.X, a.Pos.Y, a.Pos.Z, a.Charge, a.Radius); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "END"); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadPQR parses PQR files: whitespace-tokenized ATOM/HETATM records where
// the last five numeric fields are x, y, z, charge, radius. This is the
// "whitespace" PQR dialect emitted by pdb2pqr and WritePQR.
func ReadPQR(r io.Reader) (*Molecule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	m := &Molecule{Name: "pqr"}
	line := 0
	seen := make(map[int64]int) // atom serial → atom position, for duplicate detection
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(text, "REMARK"):
			fields := strings.Fields(text)
			if len(fields) >= 4 && fields[2] == "molecule" {
				m.Name = fields[3]
			}
			continue
		case !strings.HasPrefix(text, "ATOM") && !strings.HasPrefix(text, "HETATM"):
			continue
		}
		f := strings.Fields(text)
		if len(f) < 6 {
			return nil, fmt.Errorf("molecule: pqr line %d: too few fields", line)
		}
		// A duplicate atom serial is a malformed roster (a concatenation
		// or truncation artifact): rejected as a typed input error
		// rather than silently double-counting the atom's charge.
		if serial, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			if prev, dup := seen[serial]; dup {
				return nil, &InputError{Molecule: m.Name, Atom: len(m.Atoms), Field: "index",
					Msg: fmt.Sprintf("pqr line %d: duplicate atom serial %d (first used by atom %d)", line, serial, prev)}
			}
			seen[serial] = len(m.Atoms)
		}
		nums := make([]float64, 0, 5)
		// The trailing five numeric fields are x y z q r.
		for _, s := range f[len(f)-5:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("molecule: pqr line %d: %v", line, err)
			}
			nums = append(nums, v)
		}
		m.Atoms = append(m.Atoms, Atom{
			Pos:    geom.V(nums[0], nums[1], nums[2]),
			Charge: nums[3],
			Radius: nums[4],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(m.Atoms) == 0 {
		return nil, fmt.Errorf("molecule: pqr input has no ATOM records")
	}
	return m, m.Validate()
}

// LoadFile reads a molecule from a file, dispatching on the extension:
// ".pqr" for PQR, anything else for XYZRQ.
func LoadFile(path string) (*Molecule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".pqr") {
		return ReadPQR(f)
	}
	return ReadXYZRQ(f)
}

// SaveFile writes a molecule to a file, dispatching on the extension like
// LoadFile.
func SaveFile(path string, m *Molecule) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".pqr") {
		return WritePQR(f, m)
	}
	return WriteXYZRQ(f, m)
}
