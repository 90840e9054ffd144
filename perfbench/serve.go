package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/serve"
	"gbpolar/internal/supervise"
	"gbpolar/internal/tune"
)

// Serving-layer settings of probeServe.
const (
	serveTargetKcal = 1.0 // the tuned job's error budget
	serveProcesses  = 2   // every request's layout
	// servePollInterval is the client's completion-poll period.
	servePollInterval = 5 * time.Millisecond
	// serveMaxConns bounds the client's HTTP connections.
	serveMaxConns = 2
	// serveDrainTimeout bounds the wait for a job to end.
	serveDrainTimeout = 90 * time.Second
)

// serveJob is one scheduled request.
type serveJob struct {
	mol   int
	tuned bool
	due   time.Duration // offset from the phase start
}

// jobOutcome is what the client observed for one job.
type jobOutcome struct {
	serveJob
	status  int // HTTP status of the POST
	admit   time.Duration
	backlog int
	view    serve.JobView
	ok      bool
	err     string
}

// requestBody encodes one molecule as a job request.
func requestBody(m *molecule.Molecule, tuned bool) ([]byte, error) {
	req := serve.JobRequest{Processes: serveProcesses}
	req.Molecule.Name = m.Name
	req.Molecule.Atoms = make([]serve.AtomSpec, len(m.Atoms))
	for i, a := range m.Atoms {
		req.Molecule.Atoms[i] = serve.AtomSpec{X: a.Pos.X, Y: a.Pos.Y, Z: a.Pos.Z, Radius: a.Radius, Charge: a.Charge}
	}
	if tuned {
		req.TargetErrorKcal = serveTargetKcal
	}
	return json.Marshal(req)
}

// server is one in-process serve.Server behind a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// startServer starts a server over a fresh real-disk DataDir.
func startServer(dir string, rec *obs.Recorder) (*server, error) {
	srv, err := serve.New(serve.Config{DataDir: dir, Obs: rec})
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveMaxConns,
			MaxIdleConnsPerHost: serveMaxConns,
			DisableCompression:  true,
		}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and connections, waits for the HTTP server
// goroutine, and drains the serve workers.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.hs.Close()
	<-s.served
	s.srv.Drain()
}

func (s *server) post(body []byte) (int, serve.JobView, error) {
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, serve.JobView{}, err
	}
	defer resp.Body.Close()
	var v serve.JobView
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, v, err
	}
	if resp.StatusCode == http.StatusAccepted {
		err = json.Unmarshal(data, &v)
	}
	return resp.StatusCode, v, err
}

func (s *server) get(id string) (serve.JobView, error) {
	var v serve.JobView
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET job %s: HTTP %d", id, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v, err
}

func terminal(state string) bool {
	return state == serve.StateDone || state == serve.StateFailed || state == serve.StateInterrupted
}

// runPhase sends the jobs at their due times from one goroutine and
// polls completions head-of-line from another (the server runs jobs
// FIFO). A job is ok only if it ended done with a result that is
// neither shed nor degraded.
func runPhase(s *server, jobs []serveJob, bodies [][2][]byte) []jobOutcome {
	out := make([]jobOutcome, len(jobs))
	accepted := make(chan int, len(jobs)) // one send per job
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range accepted {
			o := &out[i]
			deadline := time.Now().Add(serveDrainTimeout)
			for {
				v, err := s.get(o.view.ID)
				if err != nil || terminal(v.State) || time.Now().After(deadline) {
					progress()
					o.view = v
					o.ok = err == nil && v.State == serve.StateDone && v.Result != nil && !v.Result.Shed && !v.Result.Degraded
					if err != nil {
						o.err = err.Error()
					} else if !o.ok {
						o.err = "job ended " + v.State
					}
					break
				}
				time.Sleep(servePollInterval)
			}
		}
	}()
	start := time.Now()
	for i, j := range jobs {
		time.Sleep(time.Until(start.Add(j.due)))
		o := &out[i]
		o.serveJob = j
		o.backlog = s.srv.QueueDepth()
		sent := time.Now()
		status, v, err := s.post(bodies[j.mol][boolIndex(j.tuned)])
		o.admit = time.Since(sent)
		progress()
		o.status = status
		if err == nil && status == http.StatusAccepted {
			o.view = v
			accepted <- i
			continue
		}
		o.err = fmt.Sprintf("POST answered %d", status)
		if err != nil {
			o.err = err.Error()
		}
	}
	close(accepted)
	wg.Wait()
	return out
}

func boolIndex(b bool) int {
	if b {
		return 1
	}
	return 0
}

// serveFixture is the molecules and request bodies of a serve phase.
type serveFixture struct {
	mols   []*molecule.Molecule
	bodies [][2][]byte
	cfg    runConfig
}

// newServeFixture generates the molecules and their request bodies.
func newServeFixture(cfg runConfig, names []string) (*serveFixture, error) {
	mols, err := rosterMolecules(names)
	if err != nil {
		return nil, err
	}
	f := &serveFixture{mols: mols, bodies: make([][2][]byte, len(mols)), cfg: cfg}
	for i, m := range mols {
		for t := 0; t < 2; t++ {
			if f.bodies[i][t], err = requestBody(m, t == 1); err != nil {
				return nil, fmt.Errorf("encoding %s: %w", m.Name, err)
			}
		}
	}
	return f, nil
}

// timedPhase starts a server, runs one phase, and stops the server.
func (f *serveFixture) timedPhase(jobs []serveJob, srvRec *obs.Recorder) ([]jobOutcome, error) {
	s, err := startServer(filepath.Join(f.cfg.workDir, "serve"), srvRec)
	if err != nil {
		return nil, err
	}
	out := runPhase(s, jobs, f.bodies)
	s.stop()
	return out, nil
}

// checkServed checks every served untuned, unshed result bit for bit
// against a direct gb.Run at the request's layout on the default
// system, and that tuned results carry their accuracy envelope and a
// finite energy.
func checkServed(rep *report, f *serveFixture, out []jobOutcome) error {
	for _, o := range out {
		if o.view.Result == nil || o.view.Result.Shed {
			continue
		}
		r := o.view.Result
		name := f.mols[o.mol].Name
		if o.tuned {
			if r.Accuracy == nil || math.IsNaN(r.Epol) || math.IsInf(r.Epol, 0) {
				rep.check(fmt.Errorf("%s: tuned result has no accuracy envelope or a non-finite energy", name))
			}
			continue
		}
		sys, err := buildSystem(f.mols[o.mol], nil, nil)
		if err != nil {
			return err
		}
		res, err := sys.Run(gb.RunSpec{Processes: serveProcesses})
		if err != nil {
			return fmt.Errorf("direct run of %s: %w", name, err)
		}
		rep.check(checkBitwise(name, r.EpolBits, r.BornCRC32, epolBits(res.Epol), bornCRC32(res.Born)))
	}
	return nil
}

// timingStore times every checkpoint Save of a DirStore.
type timingStore struct {
	*supervise.DirStore
	saves int
	dur   time.Duration
	bytes int64
}

func (t *timingStore) Save(phase gb.CheckpointPhase, encoded []byte) error {
	start := time.Now()
	err := t.DirStore.Save(phase, encoded)
	t.dur += time.Since(start)
	t.saves++
	t.bytes += int64(len(encoded))
	return err
}

// replayJobs runs each job's layers directly, without HTTP, JSON or
// result persistence: tune.Select (tuned jobs) or surface.Build +
// gb.NewSystem, then supervise.Run at the request's layout over a
// timed DirStore.
func replayJobs(dir string, mols []*molecule.Molecule, jobs []serveJob, acc *layerAcc) error {
	for i, j := range jobs {
		var sys *gb.System
		if j.tuned {
			t0 := time.Now()
			sel, err := tune.Select(mols[j.mol], serveTargetKcal, tune.Options{})
			acc.add("tune.select_ms", ms(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("tuning %s: %w", mols[j.mol].Name, err)
			}
			acc.add("tune.verify_runs", float64(sel.VerifyRuns))
			sys = sel.System
		} else {
			var err error
			if sys, err = buildSystem(mols[j.mol], nil, nil); err != nil {
				return err
			}
		}
		store := &timingStore{DirStore: &supervise.DirStore{Dir: filepath.Join(dir, fmt.Sprintf("job-%d", i))}}
		t0 := time.Now()
		out, err := supervise.Run(sys, supervise.Spec{Processes: serveProcesses, Store: store})
		wall := time.Since(t0)
		if err != nil {
			return fmt.Errorf("supervising %s: %w", mols[j.mol].Name, err)
		}
		acc.add("supervise.run_ms", ms(wall))
		acc.add("supervise.attempts", float64(len(out.Attempts)))
		acc.add("supervise.ckpt_saves", float64(store.saves))
		if store.saves > 0 {
			acc.add("supervise.ckpt_save_ms", ms(store.dur)/float64(store.saves))
			acc.add("supervise.ckpt_bytes", float64(store.bytes)/float64(store.saves))
		}
		acc.addTraffic(out.Result)
		progress()
	}
	return nil
}

// serveLayers records the serve.* metrics of a phase from the client's
// view and the server recorder's slo.* histograms.
func serveLayers(out []jobOutcome, bodies [][2][]byte, srvRec *obs.Recorder, acc *layerAcc) {
	backlog, rejected, shed := 0, 0, 0
	for _, o := range out {
		acc.add("serve.admit_ms", ms(o.admit))
		acc.add("serve.request_kb", float64(len(bodies[o.mol][boolIndex(o.tuned)]))/1024)
		backlog = max(backlog, o.backlog)
		if o.status != http.StatusAccepted {
			rejected++
		}
		if o.view.Result != nil && o.view.Result.Shed {
			shed++
		}
	}
	acc.add("serve.backlog_max", float64(backlog))
	acc.add("serve.rejected", float64(rejected))
	acc.add("serve.shed", float64(shed))
	for _, h := range srvRec.GaugeHistograms() {
		if h.Count == 0 {
			continue
		}
		switch {
		case strings.HasPrefix(h.Name, "slo.queue_wait_us."):
			acc.add("serve.queue_wait_ms", float64(h.Sum)/float64(h.Count)/1e3)
		case strings.HasPrefix(h.Name, "slo.run_us."):
			acc.add("serve.run_ms", float64(h.Sum)/float64(h.Count)/1e3)
		}
	}
}

// probeServe measures the serve, supervise, simmpi and tune layers,
// which neither gated workload drives: three fixed small jobs (one
// tuned) sent a second apart to a fresh server with Config.Obs attached,
// each result checked like a served result, then the same jobs replayed
// directly through the layers. The jobs count as attempted operations
// of the traced run.
func probeServe(cfg runConfig, rep *report, acc *layerAcc) error {
	names := []string{"1PPE_l_b", "1CGI_l_b", "1ACB_l_b"}
	f, err := newServeFixture(cfg, names)
	if err != nil {
		return err
	}
	jobs := []serveJob{{mol: 0}, {mol: 1, due: time.Second}, {mol: 2, tuned: true, due: 2 * time.Second}}
	srvRec := newTraceRecorder("serve probe")
	out, err := f.timedPhase(jobs, srvRec)
	if err != nil {
		return err
	}
	rep.attempted += len(out)
	for _, o := range out {
		if !o.ok {
			rep.check(fmt.Errorf("serve probe job %s: %s", f.mols[o.mol].Name, o.err))
		}
	}
	if err := checkServed(rep, f, out); err != nil {
		return err
	}
	serveLayers(out, f.bodies, srvRec, acc)
	return replayJobs(filepath.Join(cfg.workDir, "probe"), f.mols, jobs, acc)
}
