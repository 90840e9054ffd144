package molecule

import (
	"errors"
	"math"
	"strings"
	"testing"

	"gbpolar/internal/geom"
)

func TestValidateReturnsTypedInputErrors(t *testing.T) {
	cases := []struct {
		atom  Atom
		field string
	}{
		{Atom{Pos: geom.V(math.NaN(), 0, 0), Radius: 1}, "position"},
		{Atom{Pos: geom.V(0, math.Inf(1), 0), Radius: 1}, "position"},
		{Atom{Pos: geom.V(0, 0, 0), Radius: 0}, "radius"},
		{Atom{Pos: geom.V(0, 0, 0), Radius: -1.5}, "radius"},
		{Atom{Pos: geom.V(0, 0, 0), Radius: math.NaN()}, "radius"},
		{Atom{Pos: geom.V(0, 0, 0), Radius: 1, Charge: math.Inf(-1)}, "charge"},
	}
	for i, c := range cases {
		m := &Molecule{Name: "bad", Atoms: []Atom{
			{Pos: geom.V(1, 1, 1), Radius: 1, Charge: 0.5},
			c.atom,
		}}
		err := m.Validate()
		if err == nil {
			t.Fatalf("case %d: accepted invalid atom %+v", i, c.atom)
		}
		if !errors.Is(err, ErrInvalidInput) {
			t.Errorf("case %d: error %v does not wrap ErrInvalidInput", i, err)
		}
		var ie *InputError
		if !errors.As(err, &ie) {
			t.Fatalf("case %d: error %T is not *InputError", i, err)
		}
		if ie.Atom != 1 || ie.Field != c.field || ie.Molecule != "bad" {
			t.Errorf("case %d: got atom=%d field=%q mol=%q, want atom=1 field=%q",
				i, ie.Atom, ie.Field, ie.Molecule, c.field)
		}
	}
}

func TestReadPQRRejectsDuplicateSerials(t *testing.T) {
	pqr := `REMARK  gbpolar molecule dup
ATOM      1  C   GLY A   1       0.000   0.000   0.000  0.1000 1.5000
ATOM      2  C   GLY A   1       3.000   0.000   0.000  0.2000 1.5000
ATOM      2  C   GLY A   1       0.000   3.000   0.000  0.3000 1.5000
END
`
	_, err := ReadPQR(strings.NewReader(pqr))
	if err == nil {
		t.Fatal("duplicate serial accepted")
	}
	var ie *InputError
	if !errors.As(err, &ie) || !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("error %v is not a typed input error", err)
	}
	if ie.Field != "index" || !strings.Contains(ie.Msg, "duplicate atom serial 2") {
		t.Errorf("unexpected typed error %+v", ie)
	}
}

func TestReadXYZRQRejectsNonFiniteTyped(t *testing.T) {
	cases := []struct {
		name, in, field string
	}{
		{"nan-coordinate", "2 nanmol\n0 0 0 1.5 0.1\nNaN 0 0 1.5 0.1\n", "position"},
		{"negative-radius", "1 badrad\n0 0 0 -2 0.1\n", "radius"},
		{"count-mismatch", "2 short\n0 0 0 1.5 0.1\n", "atoms"},
		{"bad-header-count", "x name\n", "atoms"},
		{"negative-header-count", "-1 name\n", "atoms"},
		{"wrong-field-count", "1 demo\n0 0 0 1\n", "record"},
		{"unparsable-coordinate", "1 demo\n0 0 z 1 0\n", "position"},
		{"unparsable-charge", "1 demo\n0 0 0 1 q\n", "charge"},
	}
	for _, c := range cases {
		_, err := ReadXYZRQ(strings.NewReader(c.in))
		if !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: error %v does not wrap ErrInvalidInput", c.name, err)
			continue
		}
		var ie *InputError
		if !errors.As(err, &ie) {
			t.Errorf("%s: error %T is not *InputError", c.name, err)
			continue
		}
		if ie.Field != c.field {
			t.Errorf("%s: field %q, want %q (%v)", c.name, ie.Field, c.field, err)
		}
	}
}
