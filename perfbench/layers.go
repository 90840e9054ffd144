package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
)

// layerUnits is the per-layer schema: every traced run reports exactly
// these, on every workload (BENCHMARK.json lists the same). A layer a
// workload does not exercise is measured by a small fixed probe (see
// probeServe and probeDock), so no number is a placeholder.
var layerUnits = map[string]string{
	"surface.build_ms": "ms", "surface.qpoints": "count",
	"system.build_ms": "ms", "system.data_bytes": "B",
	"gb.born_ms": "ms", "gb.born_ops": "count",
	"gb.epol_ms": "ms", "gb.epol_ops": "count", "gb.epol_ns_per_op": "ns",
	"gb.pairs_born_near": "count", "gb.pairs_born_far": "count",
	"gb.pairs_epol_near": "count", "gb.pairs_epol_far": "count",
	"gb.naive_epol_ms": "ms", "gb.octree_vs_naive": "1",
	"driver.serial_run_ms": "ms", "driver.cilk2_run_ms": "ms",
	"driver.cilk2_eff": "1", "driver.ops_imbalance": "1", "sched.steals": "count",
	"simmpi.allreduce_calls": "count", "simmpi.allreduce_bytes": "B", "simmpi.p2p_bytes": "B",
	"supervise.run_ms": "ms", "supervise.attempts": "count", "supervise.ckpt_saves": "count",
	"supervise.ckpt_save_ms": "ms", "supervise.ckpt_bytes": "B",
	"serve.admit_ms": "ms", "serve.queue_wait_ms": "ms", "serve.run_ms": "ms",
	"serve.backlog_max": "count", "serve.rejected": "count", "serve.shed": "count",
	"serve.request_kb": "KB",
	"tune.select_ms":   "ms", "tune.verify_runs": "count",
	"dock.scorer_setup_ms": "ms", "dock.pose_ms": "ms", "dock.pose_ops": "count",
	"dock.clash_frac": "1", "dock.fast_vs_full": "1",
	"perf.model_s": "s", "perf.model_ratio": "1",
	"calib.ns": "ns", "gen.lag_ms_p99": "ms",
	"trace.overhead_frac": "1", "trace.residual_frac": "1",
}

// layerAcc collects samples per layer metric; a metric's value is the
// mean of its samples unless the workload sets it directly.
type layerAcc struct {
	samples map[string][]float64
	// modeledS and measuredS sum the perf model's price and the measured
	// wall time of every priced run.
	modeledS, measuredS float64
	// runs counts the gb.Run calls made with the benchmark's recorder
	// attached as RunSpec.Obs (the pair counters are per run).
	runs int
}

func newLayerAcc() *layerAcc { return &layerAcc{samples: map[string][]float64{}} }

func (a *layerAcc) add(name string, v float64) { a.samples[name] = append(a.samples[name], v) }

func (a *layerAcc) has(name string) bool { return len(a.samples[name]) > 0 }

// price adds one measured run to the perf-model comparison. The modeled
// time is the paper's Lonestar4 machine model, not this host.
func (a *layerAcc) price(res *gb.Result, sys *gb.System, wall time.Duration) error {
	shape := perf.RunShape{
		Processes:         max(res.Processes, 1),
		ThreadsPerProcess: max(res.ThreadsPerProcess, 1),
		DataBytes:         sys.DataBytes(),
	}
	b, err := perf.Lonestar4().Price(perf.DefaultCalibration(), shape, res.PerCoreOps, res.Traffic)
	if err != nil {
		return fmt.Errorf("pricing a %d×%d run: %w", shape.Processes, shape.ThreadsPerProcess, err)
	}
	a.modeledS += b.TotalSeconds
	a.measuredS += wall.Seconds()
	a.add("perf.model_s", b.TotalSeconds)
	return nil
}

// addTraffic records a run's simmpi traffic.
func (a *layerAcc) addTraffic(res *gb.Result) {
	ar := res.Traffic.Collectives["allreduce"]
	a.add("simmpi.allreduce_calls", float64(ar.Calls))
	a.add("simmpi.allreduce_bytes", float64(ar.Bytes))
	a.add("simmpi.p2p_bytes", float64(res.Traffic.P2PBytes))
}

// addCilk records a shared-memory run's driver and scheduler numbers.
func (a *layerAcc) addCilk(res *gb.Result, wall time.Duration) {
	a.add("driver.cilk2_run_ms", ms(wall))
	a.add("sched.steals", float64(res.Steals))
	maxOps, sum := int64(0), int64(0)
	for _, o := range res.PerCoreOps {
		maxOps = max(maxOps, o)
		sum += o
	}
	if sum > 0 {
		a.add("driver.ops_imbalance", float64(maxOps)*float64(len(res.PerCoreOps))/float64(sum))
	}
}

// finish turns the samples into the report's layer metrics: means,
// derived ratios, and the per-run pair counters RunSpec.Obs published
// into rec. It first notes the trace's self time per layer and records
// its residual. A metric with no sample stays unset, so the run fails
// on it instead of reporting a placeholder.
func (a *layerAcc) finish(rep *report, rec *obs.Recorder) {
	traceSummary(rep, rec)
	if a.runs > 0 {
		c := rec.Counters()
		for _, k := range []string{"born.near", "born.far", "epol.near", "epol.far"} {
			a.add("gb.pairs_"+strings.ReplaceAll(k, ".", "_"), float64(c["pairs."+k])/float64(a.runs))
		}
	}
	for name, unit := range layerUnits {
		if s := a.samples[name]; len(s) > 0 {
			rep.setLayer(name, mean(s), unit)
		}
	}
	if epolOps := sumOf(a.samples["gb.epol_ops"]); epolOps > 0 {
		rep.setLayer("gb.epol_ns_per_op", sumOf(a.samples["gb.epol_ms"])*1e6/epolOps, "ns")
	}
	if n := sumOf(a.samples["gb.naive_epol_ms"]); n > 0 {
		rep.setLayer("gb.octree_vs_naive", sumOf(a.samples["gb.epol_ms"])/n, "1")
	}
	if c := sumOf(a.samples["driver.cilk2_run_ms"]); c > 0 && a.has("driver.serial_run_ms") {
		rep.setLayer("driver.cilk2_eff", mean(a.samples["driver.serial_run_ms"])/(2*mean(a.samples["driver.cilk2_run_ms"])), "1")
	}
	if a.modeledS > 0 {
		rep.setLayer("perf.model_ratio", a.measuredS/a.modeledS, "1")
	}
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// newTraceRecorder returns the benchmark's own span recorder.
func newTraceRecorder(label string) *obs.Recorder {
	rec := obs.NewRecorder(perf.StartTimer().Elapsed)
	rec.SetLabel(label)
	return rec
}

// selfTimes returns each span name's total duration and self time (its
// duration minus the part its child spans cover).
func selfTimes(rec *obs.Recorder) (total, self map[string]time.Duration) {
	spans := rec.Spans()
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	childSum := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - childSum[i]
	}
	return total, self
}

// traceSummary records the residual, the self time of the "op" root
// spans as a share of their duration (time inside an operation that no
// layer span covers), and notes the self time of every layer.
func traceSummary(rep *report, rec *obs.Recorder) {
	total, self := selfTimes(rec)
	if t := total[spanOp]; t > 0 {
		rep.setLayer("trace.residual_frac", float64(self[spanOp])/float64(t), "1")
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%.1f", n, ms(self[n])))
	}
	rep.note("self_ms %s", strings.Join(parts, " "))
}

// spanOp is the root span of one benchmark operation (a solve, a job,
// a pass over the poses); layer spans nest beneath it.
const spanOp = "op"

// writeTrace writes the recorders as one Chrome trace (cmd/gbtrace
// reads it).
func writeTrace(path string, recs ...*obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, recs...); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// tracedAt reports whether the k-th of a traced run's interleaved
// untraced and traced operations is the traced one. The pattern
// U T T U U T … alternates which of each pair runs first, so neither
// side takes the run's cold start or a fixed place in the pair.
func tracedAt(k int) bool { return k%4 == 1 || k%4 == 2 }

// overhead records the tracing overhead: the traced over the untraced
// median operation latency of the same inputs, minus one.
func overhead(rep *report, untraced, traced []float64) {
	rep.setLayer("trace.overhead_frac", median(traced)/median(untraced)-1, "1")
}

// rosterMolecules generates the named roster molecules.
func rosterMolecules(names []string) ([]*molecule.Molecule, error) {
	entries := map[string]molecule.BenchmarkEntry{}
	for _, e := range molecule.ZDockRoster() {
		entries[e.Name] = e
	}
	out := make([]*molecule.Molecule, len(names))
	for i, n := range names {
		e, ok := entries[n]
		if !ok {
			return nil, fmt.Errorf("molecule %s is not on the roster", n)
		}
		out[i] = molecule.ZDockMolecule(e)
	}
	return out, nil
}

// buildSystem builds one molecule's surface and system at the default
// configuration, timing each layer under its own span.
func buildSystem(m *molecule.Molecule, rec *obs.Recorder, acc *layerAcc) (*gb.System, error) {
	sp := rec.StartSpan(0, "surface.build")
	start := time.Now()
	surf, err := surface.Build(m, surface.DefaultConfig())
	surfDur := time.Since(start)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("surface of %s: %w", m.Name, err)
	}
	sp = rec.StartSpan(0, "system.build")
	start = time.Now()
	sys, err := gb.NewSystem(m, surf, gb.DefaultParams())
	sysDur := time.Since(start)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("system of %s: %w", m.Name, err)
	}
	if acc != nil {
		acc.add("surface.build_ms", ms(surfDur))
		acc.add("surface.qpoints", float64(surf.NumPoints()))
		acc.add("system.build_ms", ms(sysDur))
		acc.add("system.data_bytes", float64(sys.DataBytes()))
	}
	return sys, nil
}

// runLayout runs one layout (nil pool: serial) under a "gb.run" span
// with the run's own phase spans beneath it.
func runLayout(sys *gb.System, pool *sched.Pool, rec *obs.Recorder, acc *layerAcc) (*gb.Result, time.Duration, error) {
	if rec != nil {
		acc.runs++
	}
	sp := rec.StartSpan(0, "gb.run")
	start := time.Now()
	res, err := sys.Run(gb.RunSpec{Pool: pool, Obs: rec})
	wall := time.Since(start)
	sp.End()
	if err != nil {
		return nil, 0, fmt.Errorf("running %s: %w", sys.Mol.Name, err)
	}
	return res, wall, nil
}

// measurePhases times the Born and energy phases on a prebuilt system
// and, when naive is set, the exact Epol oracle on the same radii.
func measurePhases(sys *gb.System, rec *obs.Recorder, acc *layerAcc, naive bool) {
	sp := rec.StartSpan(0, "gb.born")
	start := time.Now()
	radii, bornOps := sys.BornRadii()
	acc.add("gb.born_ms", ms(time.Since(start)))
	sp.End()
	acc.add("gb.born_ops", float64(bornOps))
	sp = rec.StartSpan(0, "gb.epol")
	start = time.Now()
	_, epolOps := sys.Epol(radii)
	acc.add("gb.epol_ms", ms(time.Since(start)))
	sp.End()
	acc.add("gb.epol_ops", float64(epolOps))
	if naive {
		sp = rec.StartSpan(0, "gb.naive_epol")
		start = time.Now()
		sys.NaiveEpol(radii)
		acc.add("gb.naive_epol_ms", ms(time.Since(start)))
		sp.End()
	}
	progress()
}

// measureDrivers runs the serial and 2-worker layouts on a prebuilt
// system with RunSpec.Obs attached.
func measureDrivers(sys *gb.System, pool *sched.Pool, rec *obs.Recorder, acc *layerAcc) error {
	res, wall, err := runLayout(sys, nil, rec, acc)
	if err != nil {
		return err
	}
	acc.add("driver.serial_run_ms", ms(wall))
	if err := acc.price(res, sys, wall); err != nil {
		return err
	}
	res, wall, err = runLayout(sys, pool, rec, acc)
	if err != nil {
		return err
	}
	acc.addCilk(res, wall)
	progress()
	return acc.price(res, sys, wall)
}

// measureMolecules measures the surface, system, gb-phase, oracle and
// driver layers on each molecule (dock-scan's receptor and ligand).
func measureMolecules(mols []*molecule.Molecule, pool *sched.Pool, rec *obs.Recorder, acc *layerAcc) error {
	for _, m := range mols {
		sys, err := buildSystem(m, rec, acc)
		if err != nil {
			return err
		}
		measurePhases(sys, rec, acc, true)
		if err := measureDrivers(sys, pool, rec, acc); err != nil {
			return err
		}
	}
	return nil
}

// lagP99 is the 99th percentile of the generator's lateness in ms.
func lagP99(lags []time.Duration) float64 {
	xs := make([]float64, len(lags))
	for i, l := range lags {
		xs[i] = math.Max(ms(l), 0)
	}
	return quantile(xs, 0.99)
}
