package gb

import (
	"math"
	"strings"
	"testing"

	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// TestAccuracyResolution pins how NewSystem resolves Params.Accuracy: a
// zero Accuracy becomes DefaultAccuracy; a non-zero Accuracy's own zero
// fields take the defaults — except Order, where 0 means monopole.
func TestAccuracyResolution(t *testing.T) {
	m := molecule.Exactly(molecule.Globule("accres", 120, 5), 120, 5)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		acc      Accuracy
		resolved Accuracy
	}{
		{"zero", Accuracy{}, DefaultAccuracy()},
		{"explicit", Accuracy{EpsEpol: 0.5}, Accuracy{EpsBorn: 0.9, EpsEpol: 0.5, QuadOrder: 1, Order: OrderMonopole}},
	} {
		p := DefaultParams()
		p.Accuracy = tc.acc
		s, err := NewSystem(m, surf, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Params.Accuracy; got != tc.resolved {
			t.Errorf("%s resolution: %+v, want %+v", tc.name, got, tc.resolved)
		}
	}

	if d := DefaultAccuracy(); d.Order != OrderDipole || d.EpsBorn != 0.9 || d.QuadOrder != 1 {
		t.Errorf("DefaultAccuracy = %+v", d)
	}
	if !(Accuracy{}).IsZero() || DefaultAccuracy().IsZero() {
		t.Error("IsZero misclassifies")
	}
}

// TestAccuracyDefaultBitwiseCompatible pins the zero-value contract: a
// system built with a zero Accuracy computes bitwise-identical results
// to one built with an explicit default point.
func TestAccuracyDefaultBitwiseCompatible(t *testing.T) {
	m := molecule.Exactly(molecule.Globule("accdef", 300, 17), 300, 17)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	zero := DefaultParams()
	zero.Accuracy = Accuracy{}
	oldSys, err := NewSystem(m, surf, zero)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Accuracy = Accuracy{EpsBorn: 0.9, EpsEpol: 0.9, QuadOrder: 1, Order: 1}
	newSys, err := NewSystem(m, surf, p)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustRun(t, oldSys, RunSpec{}), mustRun(t, newSys, RunSpec{})
	if math.Float64bits(a.Epol) != math.Float64bits(b.Epol) {
		t.Errorf("explicit default Accuracy changed Epol: %v vs %v", b.Epol, a.Epol)
	}
	for i := range a.Born {
		if math.Float64bits(a.Born[i]) != math.Float64bits(b.Born[i]) {
			t.Fatalf("explicit default Accuracy changed Born[%d]: %v vs %v", i, b.Born[i], a.Born[i])
		}
	}
}

// TestAccuracyValidate pins the spec's own validation.
func TestAccuracyValidate(t *testing.T) {
	cases := []struct {
		name string
		acc  Accuracy
		ok   bool
	}{
		{"zero means defaults", Accuracy{}, true},
		{"default point", DefaultAccuracy(), true},
		{"negative eps", Accuracy{EpsBorn: -0.5}, false},
		{"bin wider than eps", Accuracy{EpsEpol: 0.5, BinWidth: 0.6}, false},
		{"bin wider than defaulted eps", Accuracy{BinWidth: 1.0}, false},
		{"negative bin", Accuracy{BinWidth: -0.1}, false},
		{"quad order too high", Accuracy{QuadOrder: 9}, false},
		{"order out of range", Accuracy{Order: 3}, false},
		{"negative order", Accuracy{Order: -1}, false},
		{"negative target", Accuracy{TargetError: -1}, false},
		{"quadrupole fine", Accuracy{Order: 2, QuadOrder: 3}, true},
	}
	for _, c := range cases {
		if err := c.acc.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestParamsRejectEpsBinAboveEpsEpol pins that Params.Validate and
// NewSystem apply the Accuracy.BinWidth bound: bins wider than the
// energy criterion silently degrade the Fig. 3 histogram bound and must
// be rejected, not absorbed.
func TestParamsRejectEpsBinAboveEpsEpol(t *testing.T) {
	p := DefaultParams()
	p.Accuracy.EpsEpol, p.Accuracy.BinWidth = 0.9, 1.5
	err := p.Validate()
	if err == nil {
		t.Fatal("BinWidth > EpsEpol passed Validate")
	}
	if !strings.Contains(err.Error(), "EpsEpol") {
		t.Errorf("rejection does not name the bound: %v", err)
	}
	m := molecule.Exactly(molecule.Globule("bin", 50, 3), 50, 3)
	surf, serr := surface.Build(m, surface.DefaultConfig())
	if serr != nil {
		t.Fatal(serr)
	}
	if _, err := NewSystem(m, surf, p); err == nil {
		t.Error("NewSystem accepted EpsBin > EpsEpol")
	}
}

// TestRunSpecAccuracyOverrideMatchesDedicatedSystem pins the override
// path: running a prepared quadrupole system at a looser dipole point via
// RunSpec.Accuracy is bitwise the same as building a system at that point
// directly (same surface) — one System serves many accuracy points.
func TestRunSpecAccuracyOverrideMatchesDedicatedSystem(t *testing.T) {
	m := molecule.Exactly(molecule.Globule("ovr", 300, 23), 300, 23)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Accuracy = Accuracy{EpsBorn: 0.3, EpsEpol: 0.3, BinWidth: 0.3 / 8, QuadOrder: 1, Order: OrderQuadrupole}
	host, err := NewSystem(m, surf, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, acc := range []Accuracy{
		{EpsBorn: 0.9, EpsEpol: 0.9, QuadOrder: 1, Order: OrderDipole},
		{EpsBorn: 1.2, EpsEpol: 1.2, QuadOrder: 1, Order: OrderMonopole},
		{EpsBorn: 0.6, EpsEpol: 0.6, QuadOrder: 1, Order: OrderQuadrupole},
	} {
		acc := acc
		over, err := host.Run(RunSpec{Accuracy: &acc})
		if err != nil {
			t.Fatalf("override %+v: %v", acc, err)
		}
		dp := DefaultParams()
		dp.Accuracy = acc
		dedicated, err := NewSystem(m, surf, dp)
		if err != nil {
			t.Fatal(err)
		}
		direct := mustRun(t, dedicated, RunSpec{})
		if math.Float64bits(over.Epol) != math.Float64bits(direct.Epol) {
			t.Errorf("override at %+v: Epol %v, dedicated system %v", acc, over.Epol, direct.Epol)
		}
	}
}

// TestWithAccuracyBuildsMissingMoments pins the shallow-copy contract:
// raising a dipole system to quadrupole via WithAccuracy builds the
// second-moment aggregates on the copy (the original is untouched) and
// matches a system built at quadrupole from scratch.
func TestWithAccuracyBuildsMissingMoments(t *testing.T) {
	m := molecule.Exactly(molecule.Globule("wacc", 300, 29), 300, 29)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewSystem(m, surf, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	baseline := mustRun(t, base, RunSpec{})

	acc := Accuracy{EpsBorn: 0.9, EpsEpol: 0.9, QuadOrder: 1, Order: OrderQuadrupole}
	up, err := base.WithAccuracy(acc)
	if err != nil {
		t.Fatal(err)
	}
	dp := DefaultParams()
	dp.Accuracy = acc
	dedicated, err := NewSystem(m, surf, dp)
	if err != nil {
		t.Fatal(err)
	}
	got, want := mustRun(t, up, RunSpec{}), mustRun(t, dedicated, RunSpec{})
	if math.Float64bits(got.Epol) != math.Float64bits(want.Epol) {
		t.Errorf("WithAccuracy quadrupole Epol %v, dedicated %v", got.Epol, want.Epol)
	}

	// The original system is untouched.
	again := mustRun(t, base, RunSpec{})
	if math.Float64bits(again.Epol) != math.Float64bits(baseline.Epol) {
		t.Errorf("WithAccuracy perturbed the receiver: %v vs %v", again.Epol, baseline.Epol)
	}

	if _, err := base.WithAccuracy(Accuracy{EpsBorn: -1}); err == nil {
		t.Error("WithAccuracy accepted an invalid point")
	}
	same, err := base.WithAccuracy(Accuracy{})
	if err != nil || same != base {
		t.Errorf("zero accuracy should return the receiver unchanged (got %p vs %p, err %v)", same, base, err)
	}
}

// TestOrder2CheckpointResume is the PR 8 resume regression at p = 2: the
// quadrupole payload (9 extra floats per surface point in the integrals
// snapshot) round-trips through a kill/resume cycle to bitwise-identical
// results.
func TestOrder2CheckpointResume(t *testing.T) {
	const P = 4
	m := molecule.Exactly(molecule.Globule("ck2", 300, 31), 300, 31)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Accuracy = Accuracy{EpsBorn: 0.9, EpsEpol: 0.9, QuadOrder: 1, Order: OrderQuadrupole}
	s, err := NewSystem(m, surf, p)
	if err != nil {
		t.Fatal(err)
	}

	sinkA := &memSink{}
	resA, err := s.Run(RunSpec{Processes: P, Faults: &FaultConfig{ForceProtocol: true}, Checkpoint: sinkA})
	if err != nil {
		t.Fatal(err)
	}

	sinkB := &memSink{}
	_, err = s.Run(RunSpec{Processes: P, Faults: &FaultConfig{Plan: crashAllAt(P, 4)}, Checkpoint: sinkB})
	if err == nil {
		t.Fatal("killing every rank should fail the run")
	}
	ck := sinkB.latest(t)
	if ck.Phase != PhaseIntegrals {
		t.Fatalf("last checkpoint at phase %s, want %s", ck.Phase, PhaseIntegrals)
	}

	resB, err := s.Run(RunSpec{Processes: P, Faults: &FaultConfig{ForceProtocol: true}, Resume: ck})
	if err != nil {
		t.Fatalf("quadrupole resume failed: %v", err)
	}
	if math.Float64bits(resB.Epol) != math.Float64bits(resA.Epol) {
		t.Errorf("resumed quadrupole Epol %v != uninterrupted %v", resB.Epol, resA.Epol)
	}
	for i := range resA.Born {
		if math.Float64bits(resB.Born[i]) != math.Float64bits(resA.Born[i]) {
			t.Fatalf("resumed Born[%d] differs", i)
		}
	}
}

// TestCanResumeRejectsOrderMismatch pins the shape guard the supervisor
// leans on: a checkpoint saved at one expansion order cannot silently
// resume a system at another (the integrals payload shape differs), and
// CanResume reports it instead of corrupting the run.
func TestCanResumeRejectsOrderMismatch(t *testing.T) {
	const P = 3
	m := molecule.Exactly(molecule.Globule("ckmix", 200, 37), 200, 37)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mkSys := func(order int) *System {
		p := DefaultParams()
		p.Accuracy = Accuracy{EpsBorn: 0.9, EpsEpol: 0.9, QuadOrder: 1, Order: order}
		s, err := NewSystem(m, surf, p)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	dip, quad := mkSys(OrderDipole), mkSys(OrderQuadrupole)

	sink := &memSink{}
	if _, err := dip.Run(RunSpec{Processes: P, Faults: &FaultConfig{Plan: crashAllAt(P, 4)}, Checkpoint: sink}); err == nil {
		t.Fatal("killing every rank should fail the run")
	}
	ck := sink.latest(t)
	if ck.Phase != PhaseIntegrals {
		t.Fatalf("checkpoint phase %s, want %s", ck.Phase, PhaseIntegrals)
	}

	if err := dip.CanResume(ck); err != nil {
		t.Errorf("same-order CanResume rejected its own checkpoint: %v", err)
	}
	if err := quad.CanResume(ck); err == nil {
		t.Error("quadrupole system accepted a dipole integrals checkpoint")
	}
	if err := dip.CanResume(nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
}
