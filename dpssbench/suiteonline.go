package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/experiments"
	"github.com/smartdpss/smartdpss/internal/suite"
)

// suiteScenarios is the suite-online input: every registered 31-day
// scenario except geo-div (the geo-lp workload) and ext-annual (the
// 8760-slot LP), pinned so a newly registered scenario does not change
// the workload.
var suiteScenarios = []string{
	"fig5", "fig6v", "fig6t", "fig7", "fig8", "fig9", "fig10",
	"ext-peak", "ext-cycle", "ext-mix", "ext-est", "ext-mpc", "ext-seeds", "ext-cool",
	"prov-grid", "prov-fuel", "prov-vt",
	"fleet-mix", "fleet-uc", "fleet-co2",
	"geo-scale", "geo-lat",
	"tune-gap", "tune-xfer", "tune-frontier",
}

// suiteWorkers fixes the pool width, so the workload does not depend on
// the host's core count.
const suiteWorkers = 2

type suiteOnline struct {
	cfg    suite.Config
	scns   []suite.Scenario
	golden map[string][]byte // paper figures at seed 1
	base   *engine.Traces    // the suite's base traces, for the traced probes
}

func runSuiteOnline(e *env) error {
	w := &suiteOnline{}
	if e.seed == 1 {
		golden, err := readGoldens(goldenDir)
		if err != nil {
			return err
		}
		w.golden = golden
	}
	if err := e.setup(func() error { return w.setup(e) }); err != nil {
		return err
	}
	if e.rec != nil {
		// The layer probes replay the suite's base traces. The passes
		// generate their own through the trace cache, so these are
		// not part of the set-up.
		t := e.rec.begin("bench.probe_inputs")
		base, err := generate(t, 0, w.cfg.TraceConfig())
		e.rec.finish(t)
		if err != nil {
			return err
		}
		w.base = base
	}
	if err := e.timed(3, w.pass(e)); err != nil {
		return err
	}
	if e.rec == nil {
		return nil
	}
	for _, name := range suiteScenarios {
		e.layer["suite.scenario."+name+"_s"] = orZero(median(e.rec.durations("suite.scenario." + name)))
	}
	e.layer["trace.explained_share"] = orZero(median(e.rec.explained("suite.run")))
	return nil
}

// readGoldens loads the committed paper-figure snapshots.
func readGoldens(dir string) (map[string][]byte, error) {
	scns, err := suite.Select(experiments.TagPaper)
	if err != nil {
		return nil, err
	}
	golden := make(map[string][]byte, len(scns))
	for _, sc := range scns {
		data, err := os.ReadFile(filepath.Join(dir, sc.Name+".txt"))
		if err != nil {
			return nil, fmt.Errorf("golden snapshot: %w", err)
		}
		golden[sc.Name] = data
	}
	return golden, nil
}

// setup selects the scenarios. Their traces are generated inside each
// pass, from a cold trace cache, as a fresh process would.
func (w *suiteOnline) setup(e *env) error {
	cfg := suite.DefaultConfig()
	cfg.Seed = e.seed
	cfg.Parallel = suiteWorkers
	scns, err := suite.Select(suiteScenarios...)
	if err != nil {
		return err
	}
	if len(scns) != len(suiteScenarios) {
		return fmt.Errorf("selected %d scenarios, want %d", len(scns), len(suiteScenarios))
	}
	w.cfg, w.scns = cfg, scns
	return nil
}

// generate times one trace generation as an engine span.
func generate(t *tree, parent int, tc engine.TraceConfig) (*engine.Traces, error) {
	id := t.start("engine.generate_traces", parent)
	defer t.stop(id)
	return engine.GenerateTraces(tc)
}

// pass runs the 25 scenarios once from a cold trace cache, as a fresh
// process would, and checks every table. A traced pass wraps each
// scenario's runner in a span and then probes the layers the suite
// reaches only from inside: the tuner and the offline/lookahead LPs.
func (w *suiteOnline) pass(e *env) func(traced bool) error {
	return func(traced bool) error {
		suite.ResetTraceCache()
		scns := w.scns
		var t *tree
		if traced {
			t = e.rec.begin("suite.run")
			scns = make([]suite.Scenario, len(w.scns))
			for i, sc := range w.scns {
				scns[i] = sc
				scns[i].Run = func(cfg suite.Config) (*suite.Table, error) {
					id := t.start("suite.scenario."+sc.Name, 0)
					defer t.stop(id)
					return sc.Run(cfg)
				}
			}
		}
		var results []suite.Result
		m, _ := measure(func() error {
			results = suite.Run(w.cfg, scns)
			return nil
		})
		if traced {
			m.wall = e.rec.finish(t)
		}
		e.pass(m, traced)
		for _, r := range results {
			e.check("scenario "+r.Scenario.Name, w.verify(e, r))
		}
		if !traced {
			return nil
		}
		hits, misses := suite.TraceCacheStats()
		if hits+misses > 0 {
			e.layer["suite.trace_cache.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		w.probeTune(e)
		w.probeLookahead(e)
		w.probeOffline(e)
		return nil
	}
}

// verify checks one scenario's table: no error, the same bytes on every
// pass and as the reference digest of this seed, and at seed 1 the
// committed golden snapshot byte for byte.
func (w *suiteOnline) verify(e *env, r suite.Result) error {
	if r.Err != nil {
		return r.Err
	}
	if r.Table == nil {
		return errors.New("no table")
	}
	var buf bytes.Buffer
	if err := r.Table.Fprint(&buf); err != nil {
		return err
	}
	if want, ok := w.golden[r.Scenario.Name]; ok && !bytes.Equal(buf.Bytes(), want) {
		return fmt.Errorf("table differs from golden snapshot %s.txt", r.Scenario.Name)
	}
	return e.same("table."+r.Scenario.Name, digest(buf.Bytes()))
}

// digest is the hex SHA-256 of data.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// probeTune times one SmartDPSS tuning run (the tune scenarios' inner
// loop) and counts its simulator evaluations.
func (w *suiteOnline) probeTune(e *env) {
	t := e.rec.begin("experiments.run_tune")
	id := t.start("optimize.tune", 0)
	res, err := experiments.RunTune(experiments.TuneOptions{
		Policy: engine.PolicySmartDPSS,
		Base:   engine.DefaultOptions(),
		Suite:  w.cfg,
		Seed:   1,
	})
	t.stop(id)
	e.rec.finish(t)
	if !e.check("tune probe", err) {
		return
	}
	if res.TunedScore > res.DefaultScore {
		e.check("tune probe", fmt.Errorf("tuned score %g above default %g", res.TunedScore, res.DefaultScore))
	}
	e.check("tune probe determinism", e.repeats("tune.evals", fmt.Sprint(res.Evals)))
	e.layer["optimize.tune_evals"] = float64(res.Evals)
	if d := e.rec.durations("optimize.tune"); len(d) > 0 && res.Evals > 0 {
		e.layer["optimize.eval_ms"] = median(d) / float64(res.Evals) * 1e3
	}
}

// probeLookahead replays the base traces under the receding-horizon LP
// policy, one span per slot.
func (w *suiteOnline) probeLookahead(e *env) {
	t := e.rec.begin("baseline.lookahead")
	rep, err := replay(t, engine.PolicyLookahead, w.base.Clone(), func(int) string {
		return "baseline.lookahead_step"
	})
	e.rec.finish(t)
	if e.check("lookahead probe", err) {
		e.check("lookahead probe determinism", e.repeats("lookahead.cost", fmt.Sprint(rep.TotalCostUSD)))
	}
	steps := e.rec.durations("baseline.lookahead_step")
	e.layer["baseline.lookahead_step_p50_us"] = orZero(percentile(steps, 0.5)) * 1e6
	e.layer["baseline.lookahead_step_p99_us"] = orZero(percentile(steps, 0.99)) * 1e6
}

// probeOffline times the clairvoyant baselines: the per-interval LP of
// PolicyOfflineOptimal at each interval boundary, and the construction
// of PolicyOfflineHorizon, which solves the whole-horizon LP.
func (w *suiteOnline) probeOffline(e *env) {
	T := engine.DefaultOptions().T
	t := e.rec.begin("baseline.offline")
	rep, err := replay(t, engine.PolicyOfflineOptimal, w.base.Clone(), func(slot int) string {
		if slot%T == 0 {
			return "baseline.offline_interval_step"
		}
		return "baseline.offline_replay_step"
	})
	e.rec.finish(t)
	if e.check("offline probe", err) {
		e.check("offline probe determinism", e.repeats("offline.cost", fmt.Sprint(rep.TotalCostUSD)))
	}
	e.layer["baseline.offline_interval_step_us"] = orZero(median(e.rec.durations("baseline.offline_interval_step"))) * 1e6

	t = e.rec.begin("baseline.offline_horizon")
	id := t.start("baseline.offline_horizon_new", 0)
	_, err = engine.NewReplaySession(engine.PolicyOfflineHorizon, engine.DefaultOptions(), w.base.Clone())
	t.stop(id)
	e.rec.finish(t)
	e.check("offline horizon probe", err)
	e.layer["baseline.offline_horizon_new_ms"] = orZero(median(e.rec.durations("baseline.offline_horizon_new"))) * 1e3
}

// replay runs a replay session to its horizon with one span per slot,
// named by stepName, and returns the report.
func replay(t *tree, policy engine.Policy, traces *engine.Traces, stepName func(slot int) string) (*engine.Report, error) {
	id := t.start("engine.new_session", 0)
	sess, err := engine.NewReplaySession(policy, engine.DefaultOptions(), traces)
	t.stop(id)
	if err != nil {
		return nil, err
	}
	for !sess.Done() {
		slot := sess.Slot()
		t0 := time.Now()
		_, err := sess.StepReplay()
		t.add(stepName(slot), 0, t0, time.Now())
		if err != nil {
			return nil, fmt.Errorf("slot %d: %w", slot, err)
		}
	}
	return sess.Finish()
}
