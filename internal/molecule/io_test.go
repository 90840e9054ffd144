package molecule

import (
	"bytes"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestXYZRQRoundTrip(t *testing.T) {
	m := Globule("round trip", 200, 11)
	var buf bytes.Buffer
	if err := WriteXYZRQ(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadXYZRQ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name {
		t.Errorf("name = %q", got.Name)
	}
	if got.NumAtoms() != m.NumAtoms() {
		t.Fatalf("atoms = %d want %d", got.NumAtoms(), m.NumAtoms())
	}
	for i := range m.Atoms {
		if math.Abs(got.Atoms[i].Pos.X-m.Atoms[i].Pos.X) > 1e-5 ||
			math.Abs(got.Atoms[i].Charge-m.Atoms[i].Charge) > 1e-5 ||
			math.Abs(got.Atoms[i].Radius-m.Atoms[i].Radius) > 1e-3 {
			t.Fatalf("atom %d mismatch: %+v vs %+v", i, got.Atoms[i], m.Atoms[i])
		}
	}
}

func TestXYZRQComments(t *testing.T) {
	in := "2 demo\n# comment\n0 0 0 1.5 0.1\n\n1 0 0 1.2 -0.1\n"
	m, err := ReadXYZRQ(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumAtoms() != 2 {
		t.Fatalf("atoms = %d", m.NumAtoms())
	}
}

func TestXYZRQErrors(t *testing.T) {
	cases := []string{
		"",                     // empty
		"x name\n",             // bad count
		"2 demo\n0 0 0 1 0\n",  // count mismatch
		"1 demo\n0 0 0 1\n",    // too few fields
		"1 demo\n0 0 z 1 0\n",  // non-numeric
		"1 demo\n0 0 0 -1 0\n", // invalid radius (Validate)
		"-1 demo\n",            // negative count
	}
	for i, in := range cases {
		if _, err := ReadXYZRQ(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: no error for %q", i, in)
		}
	}
}

// TestXYZRQHugeHeaderCount pins that the header's atom count is not
// trusted for allocation: sized from the header, this 11-byte input
// would reserve about 40 GB before the count check rejects it.
func TestXYZRQHugeHeaderCount(t *testing.T) {
	if _, err := ReadXYZRQ(strings.NewReader("999999990 0")); err == nil {
		t.Fatal("header count without atoms accepted")
	}
}

// FuzzReadXYZRQ feeds arbitrary bytes to the parser: it must return an
// error or a molecule that matches its header count and validates,
// never panic or allocate from the header alone.
func FuzzReadXYZRQ(f *testing.F) {
	f.Add([]byte("2 demo\n# comment\n0 0 0 1.5 0.1\n\n1 0 0 1.2 -0.1\n"))
	f.Add([]byte("1 demo\n0 0 0 -1 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadXYZRQ(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("accepted an invalid molecule: %v", verr)
		}
		header, _, _ := strings.Cut(string(data), "\n")
		if n, _ := strconv.Atoi(strings.Fields(header)[0]); n != m.NumAtoms() {
			t.Fatalf("header count %d, parsed %d atoms", n, m.NumAtoms())
		}
	})
}

// FuzzReadPQR feeds arbitrary bytes to the PQR parser: it must return an
// error or a molecule that validates and holds one atom per ATOM/HETATM
// record, never panic or allocate beyond its input.
func FuzzReadPQR(f *testing.F) {
	f.Add([]byte("REMARK  gbpolar molecule demo\nATOM      1  C   GLY A   1       0.000   0.000   0.000  0.1000 1.5000\nHETATM    2  O   HOH A   1       1.000   0.000   0.000 -0.1000 1.2000\nEND\n"))
	f.Add([]byte("ATOM 1 C GLY A 1 0 0 0 0.5\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadPQR(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("accepted an invalid molecule: %v", verr)
		}
		records := 0
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "ATOM") || strings.HasPrefix(line, "HETATM") {
				records++
			}
		}
		if records != m.NumAtoms() {
			t.Fatalf("%d ATOM/HETATM records, parsed %d atoms", records, m.NumAtoms())
		}
	})
}

func TestPQRRoundTrip(t *testing.T) {
	m := Globule("pqrmol", 150, 13)
	var buf bytes.Buffer
	if err := WritePQR(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPQR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "pqrmol" {
		t.Errorf("name = %q", got.Name)
	}
	if got.NumAtoms() != m.NumAtoms() {
		t.Fatalf("atoms = %d want %d", got.NumAtoms(), m.NumAtoms())
	}
	for i := range m.Atoms {
		if math.Abs(got.Atoms[i].Pos.Dist(m.Atoms[i].Pos)) > 2e-3 ||
			math.Abs(got.Atoms[i].Charge-m.Atoms[i].Charge) > 1e-3 ||
			math.Abs(got.Atoms[i].Radius-m.Atoms[i].Radius) > 1e-3 {
			t.Fatalf("atom %d mismatch", i)
		}
	}
}

func TestPQRErrors(t *testing.T) {
	if _, err := ReadPQR(strings.NewReader("REMARK nothing\nEND\n")); err == nil {
		t.Error("no error for empty PQR")
	}
	if _, err := ReadPQR(strings.NewReader("ATOM 1 C GLY A 1 bad fields here x y\n")); err == nil {
		t.Error("no error for non-numeric PQR")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := Globule("file", 100, 17)
	for _, name := range []string{"m.xyzrq", "m.pqr"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NumAtoms() != m.NumAtoms() {
			t.Errorf("%s: %d atoms", name, got.NumAtoms())
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.pqr")); err == nil {
		t.Error("no error for missing file")
	}
}
