package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/serve"
)

const (
	serveDays      = 365
	serveTraces    = 6  // distinct replay traces, each with its own seed
	ckptEvery      = 24 // slots between checkpoints, one simulated day
	scrapePeriod   = 10 * time.Millisecond
	maxSlotSamples = 1 << 18
	maxScrapes     = 1 << 14
)

// serveConfigs are the SmartDPSS configurations the daemon runs rotate
// through: the paper defaults, the LP-solved P5 arm, and a two-unit
// generator fleet with a 6-slot unit-commitment window.
func serveConfigs() []engine.Options {
	paper := engine.DefaultOptions()
	lp := engine.DefaultOptions()
	lp.UseLP = true
	fleet := engine.DefaultOptions()
	fleet.Fleet = []engine.UnitSpec{
		{CapacityMW: 0.5, MinLoadFrac: 0.2, FuelUSDPerMWh: 39, StartupUSD: 10},
		{CapacityMW: 0.5, MinLoadFrac: 0.2, FuelUSDPerMWh: 43, StartupUSD: 10},
	}
	fleet.CommitWindow = 6
	return []engine.Options{paper, lp, fleet}
}

// fleetInput is an input with the fleet configuration, the one with the
// most controller state to checkpoint.
const fleetInput = 2

// serveInput is one daemon input: a configuration, its replay trace and
// the digest of the batch report over the same trace.
type serveInput struct {
	opts   engine.Options
	traces *engine.Traces
	digest string
}

type serveReplay struct {
	days   int
	inputs []serveInput
	dir    string // checkpoint directory
	rounds int

	handler handlerSwitch
	idle    http.Handler // served between rounds: a daemon that never runs
	quiet   bool         // the rounds run without scrapes and measure only allocation
	slots   *sampler     // Next-to-Next interval of untraced daemon runs, seconds
	ckpts   *sampler     // the same on checkpoint slots

	diskSlots, diskCkpts *sampler // the same for daemons checkpointing to disk

	committed   int           // slots committed by untraced daemon runs
	runTime     time.Duration // their summed run time
	checkpoints []float64     // per daemon run
	lpFailures  int
	snapBytes   []float64
}

func runServeReplay(e *env) error {
	w := &serveReplay{
		days:      serveDays,
		slots:     newSampler(maxSlotSamples),
		ckpts:     newSampler(maxSlotSamples / ckptEvery),
		diskSlots: newSampler(maxSlotSamples / 8),
		diskCkpts: newSampler(maxSlotSamples / 8 / ckptEvery),
	}
	return w.run(e)
}

func (w *serveReplay) run(e *env) error {
	w.dir = filepath.Join(e.workDir, fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(w.dir)
	if err := e.setup(func() error { return w.setup(e) }); err != nil {
		return err
	}
	for i := range w.inputs {
		rep, err := engine.Simulate(engine.PolicySmartDPSS, w.inputs[i].opts, w.inputs[i].traces)
		if err != nil {
			return fmt.Errorf("batch reference %d: %w", i, err)
		}
		w.inputs[i].digest, err = reportDigest(rep)
		if err != nil {
			return err
		}
		e.check("batch reference", e.same("report."+strconv.Itoa(i), w.inputs[i].digest))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: &w.handler, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	sess, err := newServeSession(w.inputs[0])
	if err != nil {
		return err
	}
	rs, err := serve.NewReplaySource(w.inputs[0].traces)
	if err != nil {
		return err
	}
	idle, err := serve.New(serve.Config{Session: sess, Source: rs})
	if err != nil {
		return err
	}
	w.idle = idle.Handler()
	w.handler.set(w.idle)

	sc := newScraper("http://"+ln.Addr().String()+"/metrics", e.rec)
	go sc.run()
	err = e.timed(3, w.pass(e))
	sc.halt()
	if err != nil {
		return err
	}
	if err := w.quietRounds(e); err != nil {
		return err
	}
	e.attempted += sc.attempted
	e.failed += sc.failed
	if sc.firstErr != nil {
		fmt.Fprintf(e.stderr, "dpssbench: %s: scrape: %v (%d of %d failed)\n", e.workload, sc.firstErr, sc.failed, sc.attempted)
	}
	w.diskRuns(e)

	slotsPerS := float64(w.committed) / w.runTime.Seconds()
	p50 := percentile(w.slots.vals, 0.5)
	p99 := percentile(w.slots.vals, 0.99)
	if e.rec == nil {
		e.extra = append(e.extra,
			extraMetric{"slots_per_s", "1/s", slotsPerS},
			extraMetric{"slot_p50_us", "us", p50 * 1e6},
			extraMetric{"slot_p99_us", "us", p99 * 1e6},
			extraMetric{"slot_samples", "count", float64(w.slots.seen)},
			extraMetric{"scrape_p99_us", "us", percentile(sc.latency.vals, 0.99) * 1e6},
			extraMetric{"scrapes", "count", float64(sc.attempted)},
		)
		return nil
	}
	set := func(name string, v float64) { e.layer[name] = orZero(v) }
	set("serve.slots_per_s", slotsPerS)
	set("serve.slot_p50_us", p50*1e6)
	set("serve.slot_p99_us", p99*1e6)
	set("serve.slot_samples", float64(w.slots.seen))
	set("serve.checkpoint_us", (median(w.ckpts.vals)-p50)*1e6)
	set("serve.disk_checkpoint_us", (median(w.diskCkpts.vals)-median(w.diskSlots.vals))*1e6)
	set("serve.checkpoints", median(w.checkpoints))
	set("serve.scrape_p50_us", percentile(sc.latency.vals, 0.5)*1e6)
	set("serve.scrape_p99_us", percentile(sc.latency.vals, 0.99)*1e6)
	set("serve.scrape_late_ms", percentile(sc.late.vals, 0.99)*1e3)
	set("serve.scrapes", float64(sc.attempted))
	set("serve.exposition_bytes", median(sc.bytes.vals))
	for _, name := range []string{"core.step_fine", "core.step_coarse", "sim.commit", "sim.snapshot"} {
		d := e.rec.durations(name)
		set(name+"_p50_us", percentile(d, 0.5)*1e6)
		set(name+"_p99_us", percentile(d, 0.99)*1e6)
	}
	set("sim.snapshot_bytes", median(w.snapBytes))
	set("sim.restore_us", median(e.rec.durations("sim.restore"))*1e6)
	set("core.lp_failures", float64(w.lpFailures))
	set("trace.explained_share", median(e.rec.explained("serve.daemon_run")))
	return nil
}

// setup generates the replay traces and, per input, builds the daemon a
// restarted service would: a session restored from a checkpoint file.
// The first set-up writes those files, the checkpoints a previous
// process would have left; later ones find them on disk, so set-up time
// does not include writing them.
func (w *serveReplay) setup(e *env) error {
	t := e.rec.begin("bench.setup")
	defer e.rec.finish(t)
	cfgs := serveConfigs()
	inputs := make([]serveInput, serveTraces)
	for i := range inputs {
		tc := engine.DefaultTraceConfig()
		tc.Days = w.days
		tc.Seed = e.seed*1000 + int64(i)
		tr, err := generate(t, 0, tc)
		if err != nil {
			return err
		}
		inputs[i] = serveInput{opts: cfgs[i%len(cfgs)], traces: tr}
		path := filepath.Join(w.dir, fmt.Sprintf("setup-%d.ckpt", i))
		if w.inputs == nil {
			if err := writeFreshCheckpoint(inputs[i], path); err != nil {
				return err
			}
		}
		rs, err := serve.NewReplaySource(tr)
		if err != nil {
			return err
		}
		sess, err := newServeSession(inputs[i])
		if err != nil {
			return err
		}
		d, err := serve.New(serve.Config{Session: sess, Source: rs, CheckpointPath: path})
		if err != nil {
			return err
		}
		if !d.Resumed() {
			return fmt.Errorf("daemon %d did not restore its checkpoint", i)
		}
	}
	w.inputs = inputs
	return nil
}

// writeFreshCheckpoint writes the checkpoint of a session over in that
// has not yet stepped.
func writeFreshCheckpoint(in serveInput, path string) error {
	sess, err := newServeSession(in)
	if err != nil {
		return err
	}
	snap, err := sess.Snapshot()
	if err != nil {
		return err
	}
	return os.WriteFile(path, snap, 0o644)
}

func newServeSession(in serveInput) (*engine.Session, error) {
	return engine.NewReplaySession(engine.PolicySmartDPSS, in.opts, in.traces)
}

// reportDigest is the digest of a report's JSON form.
func reportDigest(rep *engine.Report) (string, error) {
	data, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	return digest(data), nil
}

// pass runs one round: a daemon over each input in turn, then checks
// every report. Where a daemon with a checkpoint file would write it
// (after every ckptEvery-th commit, and at shutdown), the ingest source
// serializes the session instead, so the round measures checkpoint
// serialization rather than the disk. A traced round records each ingest loop's slots as spans and
// then drives one session directly, call by call.
func (w *serveReplay) pass(e *env) func(traced bool) error {
	return func(traced bool) error {
		runs := make([]daemonRun, len(w.inputs))
		m, err := measure(func() error {
			for i := range w.inputs {
				if err := w.runDaemon(e, &runs[i], w.inputs[i], traced); err != nil {
					return err
				}
			}
			return nil
		})
		w.handler.set(w.idle) // scrapes leave the round's sessions alone
		if err != nil {
			return err
		}
		if w.quiet {
			e.allocBytes = append(e.allocBytes, float64(m.allocBytes))
			e.allocObjs = append(e.allocObjs, float64(m.allocObject))
		} else {
			e.pass(m, traced)
		}
		for i, r := range runs {
			w.lpFailures += r.sess.LPFailures()
			w.checkpoints = append(w.checkpoints, float64(r.src.snapshots))
			err := r.err
			if err == nil {
				err = r.src.snapErr
			}
			e.check("daemon run", checkReport(r.sess, err, uint64(r.src.snapshots), 0, w.inputs[i].digest))
		}
		if traced {
			e.check("session drive", w.drive(e, w.inputs[w.rounds%len(w.inputs)]))
		}
		w.rounds++
		return nil
	}
}

// allocRounds is how many rounds without scrapes measure allocation.
const allocRounds = 5

// quietRounds replaces the timed rounds' allocation figures with those
// of rounds run after the scraper has stopped. The scrapes run on a
// clock, so their number in a round, and the heap they allocate, grows
// with the round's time; how much of a scrape's heap lands in a round
// also depends on scheduling. A round without scrapes allocates the same
// from run to run.
func (w *serveReplay) quietRounds(e *env) error {
	e.allocBytes, e.allocObjs = nil, nil
	w.quiet = true
	defer func() { w.quiet = false }()
	pass := w.pass(e)
	for i := 0; i < allocRounds; i++ {
		runtime.GC()
		if err := pass(false); err != nil {
			return err
		}
	}
	return nil
}

// daemonRun is one daemon's run, kept for checking after the round.
type daemonRun struct {
	sess *engine.Session
	src  *timedSource
	err  error
}

// runDaemon builds a daemon over in and runs it to the end of its trace.
func (w *serveReplay) runDaemon(e *env, r *daemonRun, in serveInput, traced bool) error {
	rs, err := serve.NewReplaySource(in.traces)
	if err != nil {
		return err
	}
	if r.sess, err = newServeSession(in); err != nil {
		return err
	}
	r.src = &timedSource{inner: rs, sess: r.sess, lock: &w.handler.mu}
	d, err := serve.New(serve.Config{Session: r.sess, Source: r.src})
	if err != nil {
		return err
	}
	w.handler.set(d.Handler())
	if traced {
		r.src.tree = e.rec.begin("serve.daemon_run")
	} else if !w.quiet {
		r.src.slots, r.src.ckpts = w.slots, w.ckpts
	}
	t0 := time.Now()
	if r.err = d.Run(context.Background()); r.err == nil {
		if r.sess.Slot()%ckptEvery == 0 {
			r.src.checkpoint() // the last periodic checkpoint
		}
		r.src.checkpoint() // the shutdown checkpoint
	}
	if traced {
		e.rec.finish(r.src.tree)
	} else if !w.quiet {
		w.committed += r.sess.Slot()
		w.runTime += time.Since(t0)
	}
	return nil
}

// diskRuns runs one daemon per configuration with a real checkpoint
// file, checks its checkpoint count and report, and times the slots on
// which it checkpoints to disk. The fleet daemon's checkpoint from one
// simulated day before the horizon then seeds a resumed daemon.
func (w *serveReplay) diskRuns(e *env) {
	for i := range serveConfigs() {
		saved, err := w.diskRun(w.inputs[i])
		e.check("disk daemon run", err)
		if i == fleetInput {
			e.check("resume from checkpoint", w.resume(w.inputs[i], saved))
		}
	}
}

// lastDay is the slot of the last checkpoint before the horizon whose
// state differs from the final one: the final periodic checkpoint and
// the shutdown checkpoint hold the same state.
func lastDay(in serveInput) int { return (in.traces.Horizon()/ckptEvery - 1) * ckptEvery }

// diskRun runs a daemon over in with a checkpoint file and checks it. It
// returns the file's contents as they stood at lastDay.
func (w *serveReplay) diskRun(in serveInput) ([]byte, error) {
	path := filepath.Join(w.dir, "daemon.ckpt")
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	rs, err := serve.NewReplaySource(in.traces)
	if err != nil {
		return nil, err
	}
	sess, err := newServeSession(in)
	if err != nil {
		return nil, err
	}
	at := lastDay(in)
	var saved []byte
	var readErr error
	src := &timedSource{inner: rs, slots: w.diskSlots, ckpts: w.diskCkpts, capture: func(n int) {
		if n == at {
			saved, readErr = os.ReadFile(path)
		}
	}}
	d, err := serve.New(serve.Config{Session: sess, Source: src, CheckpointPath: path, CheckpointEvery: ckptEvery})
	if err != nil {
		return nil, err
	}
	if err = d.Run(context.Background()); err == nil {
		err = readErr
	}
	return saved, checkReport(sess, err, d.Checkpoints(), 0, in.digest)
}

// resume starts a daemon from a checkpoint saved at lastDay; it must
// finish with the same report as the batch run.
func (w *serveReplay) resume(in serveInput, data []byte) error {
	at := lastDay(in)
	if data == nil {
		return fmt.Errorf("no checkpoint saved at slot %d", at)
	}
	path := filepath.Join(w.dir, "resume.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	rs, err := serve.NewReplaySource(in.traces)
	if err != nil {
		return err
	}
	sess, err := newServeSession(in)
	if err != nil {
		return err
	}
	d, err := serve.New(serve.Config{Session: sess, Source: rs, CheckpointPath: path, CheckpointEvery: ckptEvery})
	if err != nil {
		return err
	}
	if !d.Resumed() || sess.Slot() != at {
		return fmt.Errorf("resumed %v at slot %d, want slot %d", d.Resumed(), sess.Slot(), at)
	}
	err = d.Run(context.Background())
	return checkReport(sess, err, d.Checkpoints(), at, in.digest)
}

// checkReport checks a daemon session that ran from slot from to the
// end: a clean exit, one checkpoint per simulated day plus the shutdown
// one, and a report identical to the batch run's.
func checkReport(sess *engine.Session, runErr error, checkpoints uint64, from int, want string) error {
	if runErr != nil {
		return runErr
	}
	if n, wantN := checkpoints, uint64((sess.Horizon()-from)/ckptEvery+1); n != wantN {
		return fmt.Errorf("%d checkpoints, want %d", n, wantN)
	}
	rep, err := sess.Finish()
	if err != nil {
		return err
	}
	got, err := reportDigest(rep)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("report digest %s, batch reference %s", got, want)
	}
	return nil
}

// drive steps a streaming session over one input call by call, the way
// the daemon does, with a span per call: Step inside an interval (P5),
// Step at an interval boundary (P4 and P5), Commit, and a Snapshot per
// simulated day; then it restores the last snapshot into a new session.
func (w *serveReplay) drive(e *env, in serveInput) error {
	t := e.rec.begin("engine.session_drive")
	defer e.rec.finish(t)
	H := in.traces.Horizon()
	sess, err := engine.NewSession(engine.PolicySmartDPSS, in.opts, H)
	if err != nil {
		return err
	}
	var snap []byte
	for slot := 0; slot < H; slot++ {
		name := "core.step_fine"
		if slot%in.opts.T == 0 {
			name = "core.step_coarse"
		}
		input := in.traces.InputAt(slot)
		t0 := time.Now()
		_, err := sess.Step(input)
		t1 := time.Now()
		t.add(name, 0, t0, t1)
		if err != nil {
			return fmt.Errorf("step %d: %w", slot, err)
		}
		if _, err := sess.Commit(); err != nil {
			return fmt.Errorf("commit %d: %w", slot, err)
		}
		t.add("sim.commit", 0, t1, time.Now())
		if (slot+1)%ckptEvery == 0 {
			t0 = time.Now()
			snap, err = sess.Snapshot()
			t.add("sim.snapshot", 0, t0, time.Now())
			if err != nil {
				return fmt.Errorf("snapshot %d: %w", slot, err)
			}
			w.snapBytes = append(w.snapBytes, float64(len(snap)))
		}
	}
	w.lpFailures += sess.LPFailures()
	rep, err := sess.Finish()
	if err != nil {
		return err
	}
	if got, err := reportDigest(rep); err != nil || got != in.digest {
		return fmt.Errorf("report digest %s (%v), batch reference %s", got, err, in.digest)
	}
	restored, err := engine.NewSession(engine.PolicySmartDPSS, in.opts, H)
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = restored.Restore(snap)
	t.add("sim.restore", 0, t0, time.Now())
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	if restored.Slot() != H {
		return fmt.Errorf("restored at slot %d, want %d", restored.Slot(), H)
	}
	return nil
}

// timedSource wraps the replay source and times the interval between
// the daemon's successive Next calls: one slot's step and commit and, on
// every ckptEvery-th slot, the checkpoint. With sess set it also takes
// that checkpoint: it serializes the session as the daemon does for its
// checkpoint file, without writing the file.
//
// The daemon takes its snapshot under the mutex its /metrics handler
// also holds, which the benchmark cannot reach. The snapshot here holds
// lock instead, the write side of the lock every scrape holds while the
// daemon's handler runs, so checkpoints and scrapes exclude each other
// as they do in the daemon. The scrape holds it a little longer than the
// daemon's mutex: also while the exposition is formatted and written.
type timedSource struct {
	inner   serve.Source
	n       int // Next calls so far = the session's slot
	prev    time.Time
	slots   *sampler
	ckpts   *sampler
	tree    *tree
	capture func(n int) // called before the n-th Next

	sess      *engine.Session
	lock      sync.Locker
	snapshots int
	snapErr   error
}

// checkpoint serializes the session.
func (s *timedSource) checkpoint() {
	s.lock.Lock()
	_, err := s.sess.Snapshot()
	s.lock.Unlock()
	if err != nil && s.snapErr == nil {
		s.snapErr = err
	}
	s.snapshots++
}

func (s *timedSource) Next(ctx context.Context) (serve.Observation, error) {
	if s.sess != nil && s.n > 0 && s.n%ckptEvery == 0 {
		s.checkpoint()
	}
	now := time.Now()
	if s.n > 0 {
		if s.slots != nil {
			iv := now.Sub(s.prev).Seconds()
			s.slots.add(iv)
			if s.n%ckptEvery == 0 {
				s.ckpts.add(iv)
			}
		}
		s.tree.add("serve.ingest_slot", 0, s.prev, now)
	}
	if s.capture != nil {
		s.capture(s.n)
	}
	s.prev = now
	s.n++
	return s.inner.Next(ctx)
}

func (s *timedSource) Seek(slot int) error { s.n = slot; return s.inner.Seek(slot) }
func (s *timedSource) Close() error        { return s.inner.Close() }

// handlerSwitch serves the current daemon's monitoring endpoints. set
// waits for scrapes in flight, so once it returns no scrape reads the
// previous daemon's session and the benchmark may finish it.
type handlerSwitch struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *handlerSwitch) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *handlerSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.h.ServeHTTP(w, r)
}

// scraper is an open-loop /metrics client: one request every
// scrapePeriod over one kept-alive connection, each timed from when it
// was due. It validates every exposition it receives.
type scraper struct {
	url    string
	client *http.Client
	rec    *recorder
	stop   chan struct{}
	done   chan struct{}

	// Read only after halt returns.
	latency, late, bytes *sampler
	attempted, failed    int
	firstErr             error
}

func newScraper(url string, rec *recorder) *scraper {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &scraper{
		url:     url,
		client:  &http.Client{Transport: tr, Timeout: 5 * time.Second},
		rec:     rec,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		latency: newSampler(maxScrapes),
		late:    newSampler(maxScrapes),
		bytes:   newSampler(maxScrapes),
	}
}

// halt stops the scraper and waits for it to exit.
func (s *scraper) halt() {
	close(s.stop)
	<-s.done
	s.client.CloseIdleConnections()
}

func (s *scraper) run() {
	defer close(s.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	t0 := time.Now()
	for k := 0; ; k++ {
		due := dueTime(t0, scrapePeriod, k)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-s.stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-s.stop:
				return
			default:
			}
		}
		t := s.rec.begin("serve.scrape")
		start := time.Now()
		n, err := s.scrape()
		end := time.Now()
		s.rec.finish(t)
		s.attempted++
		if err != nil {
			s.failed++
			if s.firstErr == nil {
				s.firstErr = err
			}
			continue
		}
		lat, late := openLoop(due, start, end)
		s.latency.add(lat.Seconds())
		s.late.add(late.Seconds())
		s.bytes.add(float64(n))
	}
}

// scrape fetches and validates one exposition and returns its size.
func (s *scraper) scrape() (int, error) {
	resp, err := s.client.Get(s.url)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		return 0, fmt.Errorf("content type %q", ct)
	}
	if err := serve.ValidateExposition(body); err != nil {
		return 0, err
	}
	return len(body), nil
}
