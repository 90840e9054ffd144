// Command perfbench is gbpolar's end-to-end benchmark. It drives the
// program only through its public entry points (molecule generation,
// surface.Build, gb.NewSystem, System.Run, supervise.Run, the serve HTTP
// API, tune.Select and the dock scorer), times the calls from outside,
// checks every result for correctness outside the timed region, and
// prints one JSON result line:
//
//	bash perfbench/run.sh --workload large-oneshot --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run reports the per-layer metrics and
// writes a Chrome trace that cmd/gbtrace reads. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	budget  time.Duration
	trace   bool
	workDir string // scratch directory inside the checkout, removed at exit
	traceTo string // Chrome trace output path of a traced run
}

// report is what every workload returns.
type report struct {
	attempted, failed int
	// problems are correctness-check failures; each also counts in failed.
	problems []string
	e2e      map[string]metric
	layers   map[string]metric
	// notes are informational lines printed before the result.
	notes []string
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *report) setE2E(name string, v float64, unit string) {
	r.e2e[name] = metric{Value: v, Unit: unit}
}

func (r *report) setLayer(name string, v float64, unit string) {
	r.layers[name] = metric{Value: v, Unit: unit}
}

// check records a correctness-check outcome.
func (r *report) check(err error) {
	if err != nil {
		r.problems = append(r.problems, err.Error())
		r.failed++
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(runConfig) (*report, error){
	"large-oneshot": runLargeOneshot,
	"dock-scan":     runDockScan,
}

func main() {
	var (
		workload = flag.String("workload", "", "large-oneshot | dock-scan")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 25, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {large-oneshot|dock-scan} --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fail(err)
	}
	workDir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fail(err)
	}
	cfg := runConfig{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workDir: workDir,
		traceTo: filepath.Join(".bench_build", "trace-"+*workload+".json"),
	}
	progress()
	go watchdog()
	calibBefore := calibrate()
	rep, err := run(cfg)
	calibAfter := calibrate()
	if rmErr := os.RemoveAll(workDir); rmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", workDir, rmErr)
	}
	if err != nil {
		fail(err)
	}
	calibNS := median([]float64{calibBefore, calibAfter})
	printHost(*workload, cfg, calibNS)
	for _, n := range rep.notes {
		fmt.Println("# " + n)
	}
	for _, p := range rep.problems {
		fmt.Println("# check failed: " + p)
	}
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.e2e,
	}
	if cfg.trace {
		rep.setLayer("calib.ns", calibNS, "ns")
		if missing := missingLayers(rep.layers); len(missing) > 0 {
			fail(fmt.Errorf("traced run did not produce %s", strings.Join(missing, ", ")))
		}
		res.Metrics = rep.layers
	} else if missing := missingE2E(rep.e2e); len(missing) > 0 {
		fail(fmt.Errorf("run did not produce %s", strings.Join(missing, ", ")))
	}
	if res.Attempted < 1 {
		fail(fmt.Errorf("no operation attempted"))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// printHost prints the host fingerprint and the calibration loop time:
// host drift shows in every result instead of being normalized away.
func printHost(workload string, cfg runConfig, calibNS float64) {
	doc := map[string]any{
		"workload":   workload,
		"seed":       cfg.seed,
		"seconds":    cfg.budget.Seconds(),
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go":         runtime.Version(),
		"calib_ns":   calibNS,
	}
	line, err := json.Marshal(map[string]any{"host": doc})
	if err == nil {
		fmt.Println("# " + string(line))
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// lastProgress is the wall time (Unix ns) of the last completed step.
var lastProgress atomic.Int64

// progress marks a completed step for the watchdog.
func progress() { lastProgress.Store(time.Now().UnixNano()) }

// stallLimit is how long the run may go without completing a step. The
// longest single step, the exact oracle of a 16k-atom molecule, takes
// about 10 s on a 2-vCPU host.
const stallLimit = 60 * time.Second

// watchdog ends the process with a goroutine dump when no step has
// completed for stallLimit, so a hung program (a deadlocked scheduler,
// say) fails the run loudly and in time instead of hanging it. It runs
// until the process exits.
func watchdog() {
	for {
		time.Sleep(time.Second)
		if stalled := time.Since(time.Unix(0, lastProgress.Load())); stalled > stallLimit {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			fmt.Fprintf(os.Stderr, "perfbench: no step completed for %v: the program is hung\n%s\n", stalled.Round(time.Second), buf[:n])
			os.Exit(3)
		}
	}
}

// calibSink keeps the calibration loop's result observable.
var calibSink float64

// calibrate times a fixed dependent float loop (the median of five
// repeats, in nanoseconds). It touches no program code: a change in it
// across runs is host drift, not a regression.
func calibrate() float64 {
	times := make([]float64, 5)
	for k := range times {
		start := time.Now()
		x := 1.0
		for i := 0; i < 2_000_000; i++ {
			x = x*1.0000001 + 1e-9
			x = math.Sqrt(x * x)
		}
		calibSink += x
		times[k] = float64(time.Since(start).Nanoseconds())
	}
	return median(times)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// e2eUnits is the end-to-end schema: every timed run reports exactly
// these, on every workload (BENCHMARK.json lists the same).
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"latency_p50_ms":   "ms",
	"latency_p90_ms":   "ms",
	"throughput_per_s": "1/s",
	"peak_rss_mb":      "MB",
	"ok_frac":          "1",
	"max_rel_err":      "1",
}

func missingE2E(got map[string]metric) []string { return missing(got, e2eUnits) }

func missingLayers(got map[string]metric) []string { return missing(got, layerUnits) }

func missing(got map[string]metric, want map[string]string) []string {
	var out []string
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out = append(out, name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			out = append(out, "unlisted "+name)
		}
	}
	sort.Strings(out)
	return out
}
