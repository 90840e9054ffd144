package main

import (
	"math"
	"testing"
	"time"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/tune"
)

// smallSystem is a real system small enough for the exact oracle.
func smallSystem(t *testing.T) *gb.System {
	t.Helper()
	sys, err := buildSystem(molecule.Globule("check", 300, 7), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestWithinBoundRejectsPerturbedEnergy(t *testing.T) {
	sys := smallSystem(t)
	res, err := sys.Run(gb.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	radii, _ := sys.NaiveBornRadiiR6()
	oracle, _ := sys.NaiveEpol(radii)
	bound := tune.RelErrorBound(sys.Params.Accuracy)
	if err := checkWithinBound("octree", res.Epol, oracle, bound); err != nil {
		t.Fatalf("unperturbed octree energy rejected: %v", err)
	}
	for name, bad := range map[string]float64{
		"outside bound": oracle * (1 + 2*bound),
		"NaN":           math.NaN(),
		"Inf":           math.Inf(-1),
	} {
		if checkWithinBound(name, bad, oracle, bound) == nil {
			t.Errorf("%s energy %v accepted", name, bad)
		}
	}
}

func TestBitwiseRejectsOneULP(t *testing.T) {
	sys := smallSystem(t)
	res, err := sys.Run(gb.RunSpec{Processes: serveProcesses})
	if err != nil {
		t.Fatal(err)
	}
	again, err := sys.Run(gb.RunSpec{Processes: serveProcesses})
	if err != nil {
		t.Fatal(err)
	}
	bits, crc := epolBits(res.Epol), bornCRC32(res.Born)
	if err := checkBitwise("rerun", epolBits(again.Epol), bornCRC32(again.Born), bits, crc); err != nil {
		t.Fatalf("identical rerun rejected: %v", err)
	}
	if checkBitwise("epol+1ulp", epolBits(math.Nextafter(res.Epol, 0)), crc, bits, crc) == nil {
		t.Error("energy one ulp off accepted")
	}
	born := append([]float64(nil), res.Born...)
	born[len(born)/2] = math.Nextafter(born[len(born)/2], math.Inf(1))
	if checkBitwise("born+1ulp", bits, bornCRC32(born), bits, crc) == nil {
		t.Error("Born radius one ulp off accepted")
	}
}

func TestScorePassesRejectsDrift(t *testing.T) {
	pass := func() map[string]float64 { return map[string]float64{"a": -1.25, "b": -3.5} }
	if err := checkScorePasses([]map[string]float64{pass(), pass()}); err != nil {
		t.Fatalf("identical passes rejected: %v", err)
	}
	drift := pass()
	drift["b"] = math.Nextafter(drift["b"], 0)
	inf := pass()
	inf["a"] = math.Inf(1)
	missing := pass()
	delete(missing, "a")
	cases := map[string][]map[string]float64{
		"one-ulp drift": {pass(), drift},
		"infinite":      {inf, inf},
		"missing pose":  {pass(), missing},
		"single pass":   {pass()},
	}
	for name, passes := range cases {
		if checkScorePasses(passes) == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCellLatencyCoversBothLayouts(t *testing.T) {
	cells := []solveSpec{{mol: 0}, {mol: 0, cilk2: true}, {mol: 1}, {mol: 1, cilk2: true}}
	// Serial solves are slow, cilk2 solves fast: a quantile over all
	// solves together would see only the serial ones at p90.
	base := map[solveSpec]float64{cells[0]: 4000, cells[1]: 2500, cells[2]: 5000, cells[3]: 3000}
	solves := func(cilk2Scale float64) []solveResult {
		var out []solveResult
		for pass := 0; pass < 2; pass++ {
			for _, c := range cells {
				v := base[c] * (1 + 0.01*float64(pass))
				if c.cilk2 {
					v *= cilk2Scale
				}
				out = append(out, solveResult{solveSpec: c, latency: time.Duration(v * 1e6)})
			}
		}
		return out
	}
	for _, q := range []float64{0.5, 0.9} {
		before, after := cellLatency(solves(1), cells, q), cellLatency(solves(1.2), cells, q)
		// Half the cells 20% slower moves the geometric mean by √1.2.
		if r := after / before; math.Abs(r-math.Sqrt(1.2)) > 1e-9 {
			t.Errorf("q=%v: a 20%% slower cilk2 layout moved the latency by %v, want %v", q, r, math.Sqrt(1.2))
		}
	}
}

func TestFinishLeavesUnsampledMetricsMissing(t *testing.T) {
	rec := newTraceRecorder("finish")
	op := rec.StartSpan(0, spanOp)
	time.Sleep(time.Millisecond)
	layer := rec.StartSpan(0, "surface.build")
	time.Sleep(time.Millisecond)
	layer.End()
	op.End()
	acc := newLayerAcc()
	acc.add("simmpi.allreduce_calls", 6)
	rep := newReport()
	acc.finish(rep, rec)
	if r, ok := rep.layers["trace.residual_frac"]; !ok || !(r.Value > 0 && r.Value < 1) {
		t.Errorf("trace.residual_frac = %+v, want the op spans' self-time share in (0, 1)", r)
	}
	missing := map[string]bool{}
	for _, m := range missingLayers(rep.layers) {
		missing[m] = true
	}
	if missing["simmpi.allreduce_calls"] || missing["trace.residual_frac"] {
		t.Errorf("measured metrics reported missing: %v", missing)
	}
	if !missing["simmpi.p2p_bytes"] || !missing["serve.rejected"] {
		t.Errorf("unsampled counters were not reported missing: %v", missing)
	}
}
