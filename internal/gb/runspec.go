package gb

import (
	"context"
	"fmt"
	"io"

	"gbpolar/internal/obs"
	"gbpolar/internal/sched"
)

// Scheme selects how a distributed run divides data and work over its
// ranks. The paper's conclusion proposes the two non-default schemes as
// future work; all three run the same integrals → radii → energy phase
// skeleton with one heal path.
type Scheme int

const (
	// Replicated is the paper's layout (§IV-A): every rank holds the whole
	// system and computes a static share of every phase (under faults, a
	// share of the agreed live set, straggler-weighted).
	Replicated Scheme = iota
	// Dynamic replicates the data like Replicated, but rank 0 coordinates:
	// it serves guided-self-scheduling chunks of the node-division leaf
	// work to ranks 1..P−1 on demand, so per-rank work tracks realized
	// leaf costs (dynamic.go). Needs P ≥ 2; no faults.
	Dynamic
	// Segmented distributes data as well as computation: each rank owns
	// one atom segment and one quadrature segment and builds octrees over
	// just its data, and serialized tree bundles ring-exchange, so per-rank
	// memory is O(data/P) plus one transient remote bundle (distdata.go).
	Segmented
)

// String implements fmt.Stringer.
func (sc Scheme) String() string {
	switch sc {
	case Replicated:
		return "replicated"
	case Dynamic:
		return "dynamic"
	case Segmented:
		return "segmented"
	}
	return fmt.Sprintf("Scheme(%d)", int(sc))
}

// RunSpec selects the driver for one full polarization-energy computation
// and carries its cross-cutting options. The zero value is the serial
// octree baseline; setting exactly one of Pool or Processes selects the
// shared-memory or distributed driver, and Scheme picks the distributed
// data/work layout:
//
//	Run(RunSpec{})                                     // serial (P = p = 1)
//	Run(RunSpec{Pool: pool})                           // shared memory (OCT_CILK)
//	Run(RunSpec{Processes: 12})                        // message passing (OCT_MPI)
//	Run(RunSpec{Processes: 2, ThreadsPerProcess: 6})   // hybrid (OCT_MPI+CILK)
//	Run(RunSpec{Processes: 12, Scheme: Dynamic})       // cross-rank dynamic balancing
//	Run(RunSpec{Processes: 12, Scheme: Segmented})     // distributed data
//
// Faults and Obs compose with the distributed layouts (Obs with every
// layout): there are no per-combination entry points.
type RunSpec struct {
	// Processes is the number of message-passing ranks P. Zero selects a
	// non-distributed driver (serial, or shared-memory when Pool is set).
	Processes int
	// Scheme selects the distributed layout; the zero value is Replicated.
	// Dynamic and Segmented run one thread per rank over the node division,
	// without checkpoints; Dynamic also runs without faults.
	Scheme Scheme
	// ThreadsPerProcess is the per-rank work-stealing pool width p of the
	// hybrid driver. Zero means one thread. With Pool set it is redundant
	// and must be either zero or the pool's worker count.
	ThreadsPerProcess int
	// Pool runs the computation on a caller-owned work-stealing pool (the
	// shared-memory driver). The caller keeps ownership: Run does not
	// close it. Incompatible with Processes and Faults.
	Pool *sched.Pool
	// Faults replays a fault-injection plan against a distributed run (see
	// faulttol.go). Nil or inactive means a clean run.
	Faults *FaultConfig
	// Obs collects spans, counters, and gauges for the run (see
	// internal/obs). Nil disables instrumentation at zero cost; recording
	// never changes the computed numbers.
	Obs *obs.Recorder
	// Flight receives the recorder's flight dump — each rank's ring of
	// recent span/comm/fault events — when the run needed recovery or
	// came back Degraded, so post-mortems don't require re-running with
	// tracing on. Nil (or a nil Obs) disables the dump.
	Flight io.Writer
	// Checkpoint receives an encoded phase snapshot after each completed
	// algorithm phase (see checkpoint.go). Distributed layouts only.
	// Saving is communication- and counter-neutral: a run with a sink
	// produces bitwise-identical numbers and summaries to one without.
	Checkpoint CheckpointSink
	// Resume re-enters the pipeline at the snapshot's phase instead of
	// starting from scratch. The snapshot must come from a system with the
	// same configuration tag and an at-or-tighter ε (a relaxed WithAccuracy
	// copy resumes its parent's snapshots); the process count may differ
	// from the saving run's. Distributed layouts only.
	Resume *Checkpoint
	// Accuracy overrides the system's accuracy point for this run only:
	// the run executes on a shallow WithAccuracy copy, so one prepared
	// System serves many (target error, accuracy point) jobs without
	// rebuilding octrees. Nil (or the zero Accuracy) keeps the system's
	// own point. QuadOrder cannot be changed here — the surface is
	// prebuilt; use tune.Select/NewSystem to search over it.
	Accuracy *Accuracy
	// Trace is the request identity of the job this run serves (see
	// obs.TraceContext): Run stamps it onto Obs before the drivers open
	// their first span, so every span, flight event, and export of the
	// run carries it. The zero value leaves Obs untouched. Stamping is
	// write-only instrumentation — it never changes computed numbers.
	Trace obs.TraceContext
	// Ctx cancels the run cooperatively. The distributed driver checks it
	// at phase boundaries: a completed phase still saves its checkpoint,
	// then every rank returns ErrRunCanceled (wrapping ctx.Err()) before
	// starting the next phase — so a canceled run loses at most one
	// phase of work and its store resumes bitwise-identically later.
	// This is the graceful-drain hook of the serving layer. Nil means
	// never canceled. Non-distributed drivers only check it up front:
	// they have no checkpoints to protect mid-run.
	Ctx context.Context
}

// ErrRunCanceled marks a run stopped by RunSpec.Ctx at a phase boundary.
// The last completed phase's checkpoint (if a sink was attached) is
// durable; errors.Is(err, ErrRunCanceled) and errors.Is(err, ctx.Err())
// both hold on the returned error.
var ErrRunCanceled = fmt.Errorf("gb: run canceled")

// canceled returns the wrapped cancellation error if spec.Ctx is done.
func (spec *RunSpec) canceled() error {
	if spec.Ctx == nil {
		return nil
	}
	if err := spec.Ctx.Err(); err != nil {
		return fmt.Errorf("%w at phase boundary: %w", ErrRunCanceled, err)
	}
	return nil
}

// Run executes the computation the spec describes. It is the single
// driver entry point of the shared-data layouts.
func (s *System) Run(spec RunSpec) (*Result, error) {
	if !spec.Trace.IsZero() {
		spec.Obs.SetTrace(spec.Trace)
	}
	res, err := s.dispatch(spec)
	if err != nil {
		return nil, err
	}
	spec.Obs.Gauge("run.wall_us", res.Wall.Microseconds())
	if spec.Flight != nil && spec.Obs != nil && (res.Degraded || res.Recovered) {
		if _, werr := io.WriteString(spec.Flight, spec.Obs.FlightDump()); werr != nil {
			return nil, fmt.Errorf("gb: writing flight dump: %w", werr)
		}
	}
	return res, nil
}

func (s *System) dispatch(spec RunSpec) (*Result, error) {
	if err := spec.canceled(); err != nil {
		return nil, err
	}
	if spec.Processes < 0 {
		return nil, fmt.Errorf("gb: invalid spec: Processes=%d must be non-negative", spec.Processes)
	}
	if spec.ThreadsPerProcess < 0 {
		return nil, fmt.Errorf("gb: invalid spec: ThreadsPerProcess=%d must be non-negative", spec.ThreadsPerProcess)
	}
	if err := s.validateScheme(spec); err != nil {
		return nil, err
	}
	if spec.Processes == 0 && (spec.Checkpoint != nil || spec.Resume != nil) {
		return nil, fmt.Errorf("gb: invalid spec: checkpointing needs the distributed driver (set Processes >= 1)")
	}
	if spec.Accuracy != nil {
		ws, err := s.WithAccuracy(*spec.Accuracy)
		if err != nil {
			return nil, fmt.Errorf("gb: invalid spec: %w", err)
		}
		s = ws
	}
	if spec.Resume != nil {
		if err := s.validateResume(spec.Resume); err != nil {
			return nil, err
		}
	}
	if spec.Pool != nil {
		if spec.Processes > 0 {
			return nil, fmt.Errorf("gb: invalid spec: Pool selects the shared-memory driver and cannot combine with Processes=%d", spec.Processes)
		}
		if t := spec.ThreadsPerProcess; t != 0 && t != spec.Pool.NumWorkers() {
			return nil, fmt.Errorf("gb: invalid spec: ThreadsPerProcess=%d disagrees with the %d-worker Pool", t, spec.Pool.NumWorkers())
		}
		if spec.Faults.active() {
			return nil, fmt.Errorf("gb: invalid spec: fault injection needs a distributed layout (set Processes, not Pool)")
		}
		return s.runShared(spec.Pool, spec.Obs), nil
	}
	if spec.Processes == 0 {
		if spec.ThreadsPerProcess > 1 {
			return nil, fmt.Errorf("gb: invalid spec: ThreadsPerProcess=%d needs Processes >= 1 or a Pool", spec.ThreadsPerProcess)
		}
		if spec.Faults.active() {
			return nil, fmt.Errorf("gb: invalid spec: fault injection needs a distributed layout (set Processes)")
		}
		return s.runShared(nil, spec.Obs), nil
	}
	p := spec.ThreadsPerProcess
	if p == 0 {
		p = 1
	}
	return s.runDistributed(spec.Processes, p, spec)
}

// validateScheme rejects the option combinations the Dynamic and Segmented
// layouts do not implement, instead of silently running something else.
func (s *System) validateScheme(spec RunSpec) error {
	sc := spec.Scheme
	minP := 1
	if sc == Dynamic {
		minP = 2 // one coordinator plus at least one compute rank
	}
	switch {
	case sc == Replicated:
		return nil
	case sc != Dynamic && sc != Segmented:
		return fmt.Errorf("gb: invalid spec: unknown %v", sc)
	case spec.Pool != nil:
		return fmt.Errorf("gb: invalid spec: the %v scheme is distributed and cannot run on a Pool", sc)
	case spec.Processes < minP:
		return fmt.Errorf("gb: invalid spec: the %v scheme needs Processes >= %d, got %d", sc, minP, spec.Processes)
	case spec.ThreadsPerProcess > 1:
		return fmt.Errorf("gb: invalid spec: the %v scheme runs one thread per rank, got ThreadsPerProcess=%d", sc, spec.ThreadsPerProcess)
	case spec.Checkpoint != nil || spec.Resume != nil:
		return fmt.Errorf("gb: invalid spec: the %v scheme does not checkpoint or resume", sc)
	case s.Params.Division != NodeNode:
		return fmt.Errorf("gb: invalid spec: the %v scheme needs the %v division, got %v", sc, NodeNode, s.Params.Division)
	case sc == Dynamic && spec.Faults.active():
		return fmt.Errorf("gb: invalid spec: the %v scheme does not run under fault injection", sc)
	}
	return nil
}
