package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/smartdpss/smartdpss/internal/baseline"
	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/suite"
)

func testEnv() *env {
	return &env{
		workload: "test",
		seed:     1,
		stderr:   io.Discard,
		observed: make(map[string]string),
		first:    make(map[string]string),
		layer:    make(map[string]float64),
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {1, 5}, {0.1, 1.4}, {0.99, 4.96},
	} {
		if got := percentile(vals, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if vals[0] != 5 {
		t.Errorf("percentile sorted its input: %v", vals)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v", got)
	}
	if !math.IsNaN(median(nil)) || orZero(median(nil)) != 0 {
		t.Error("an empty sample should have no median, reported as 0")
	}
}

func TestSamplerCapsWithoutGrowing(t *testing.T) {
	s := newSampler(3)
	for i := 0; i < 5; i++ {
		s.add(float64(i))
	}
	if s.seen != 5 || len(s.vals) != 3 || cap(s.vals) != 3 || s.vals[2] != 2 {
		t.Errorf("sampler kept %v of %d seen (cap %d)", s.vals, s.seen, cap(s.vals))
	}
}

// spansOf builds a run from [start, end, parent] triples.
func spansOf(bounds ...[3]int64) []span {
	out := make([]span, len(bounds))
	for i, b := range bounds {
		out[i] = span{Name: "s", ID: i, Start: b[0], End: b[1], Parent: int(b[2])}
	}
	return out
}

func checkSelf(t *testing.T, spans []span, want ...float64) {
	t.Helper()
	got := selfTimes(spans)
	sum, root := 0.0, float64(spans[0].End-spans[0].Start)
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("self[%d] = %v, want %v (all %v)", i, got[i], want[i], got)
		}
		sum += got[i]
	}
	if !near(sum, root) {
		t.Errorf("self times add up to %v, root is %v", sum, root)
	}
}

func TestSelfTimesNested(t *testing.T) {
	// root [0,100] → a [10,40] → a1 [20,30]; root → b [50,90].
	checkSelf(t, spansOf(
		[3]int64{0, 100, -1},
		[3]int64{10, 40, 0},
		[3]int64{20, 30, 1},
		[3]int64{50, 90, 0},
	), 30, 20, 10, 40)
}

func TestSelfTimesConcurrentSiblingsShareOverlap(t *testing.T) {
	// Two workers: a [0,60] and b [20,100] overlap on [20,60], which
	// they share; the root is covered throughout.
	checkSelf(t, spansOf(
		[3]int64{0, 100, -1},
		[3]int64{0, 60, 0},
		[3]int64{20, 100, 0},
	), 0, 40, 60)
}

func TestSelfTimesSharedBoundariesAndEmptySpans(t *testing.T) {
	// Children that start and end exactly with their parent, and an
	// empty span, which has no self time.
	checkSelf(t, spansOf(
		[3]int64{0, 10, -1},
		[3]int64{0, 10, 0},
		[3]int64{0, 4, 1},
		[3]int64{5, 5, 1},
	), 0, 6, 4, 0)
}

func TestRecorderExplainedShare(t *testing.T) {
	r := newRecorder()
	tr := r.begin("root")
	base := time.Now()
	tr.add("child", 0, base, base.Add(time.Millisecond))
	time.Sleep(2 * time.Millisecond)
	wall := r.finish(tr)
	share := r.explained("root")
	if len(share) != 1 || share[0] <= 0 || share[0] >= 1 {
		t.Fatalf("explained share %v", share)
	}
	if d := r.durations("child"); len(d) != 1 || !near(d[0], 1e-3) {
		t.Errorf("child durations %v", d)
	}
	if wall < 2*time.Millisecond {
		t.Errorf("root lasted %v", wall)
	}
	var nilRec *recorder
	if nilRec.begin("x") != nil || nilRec.finish(nil) != 0 || nilRec.durations("x") != nil {
		t.Error("a nil recorder must record nothing")
	}
}

func TestOpenLoopTiming(t *testing.T) {
	t0 := time.Unix(0, 0)
	due := dueTime(t0, 10*time.Millisecond, 3)
	if due.Sub(t0) != 30*time.Millisecond {
		t.Fatalf("due %v", due.Sub(t0))
	}
	// Sent 2 ms late, answered 5 ms after sending.
	lat, late := openLoop(due, due.Add(2*time.Millisecond), due.Add(7*time.Millisecond))
	if lat != 7*time.Millisecond || late != 2*time.Millisecond {
		t.Errorf("latency %v lateness %v, want 7ms 2ms", lat, late)
	}
	// Sent early (the timer fired before the due time): no lateness, and
	// latency still runs from the due time.
	lat, late = openLoop(due, due.Add(-time.Millisecond), due.Add(3*time.Millisecond))
	if lat != 3*time.Millisecond || late != 0 {
		t.Errorf("latency %v lateness %v, want 3ms 0", lat, late)
	}
}

func testTable(cell string) *suite.Table {
	tbl := &suite.Table{Title: "t", Columns: []string{"a"}}
	tbl.AddRow(cell)
	return tbl
}

func render(t *testing.T, tbl *suite.Table) []byte {
	var buf bytes.Buffer
	if err := tbl.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSuiteCheckerFailsOnMutatedGolden(t *testing.T) {
	tbl := testTable("1.5")
	golden := render(t, tbl)
	sc := suite.Scenario{Name: "fig5"}

	w := &suiteOnline{golden: map[string][]byte{"fig5": golden}}
	e := testEnv()
	e.check("ok", w.verify(e, suite.Result{Scenario: sc, Table: tbl}))
	if e.failed != 0 {
		t.Fatalf("matching golden failed")
	}

	mutated := bytes.Replace(golden, []byte("1.5"), []byte("1.6"), 1)
	w.golden["fig5"] = mutated
	e = testEnv()
	e.check("mutated golden", w.verify(e, suite.Result{Scenario: sc, Table: tbl}))
	if e.attempted != 1 || e.failed != 1 {
		t.Errorf("mutated golden: %d attempted, %d failed", e.attempted, e.failed)
	}
}

func TestSuiteCheckerFailsOnMutatedDigest(t *testing.T) {
	tbl := testTable("2")
	sc := suite.Scenario{Name: "ext-mpc"}
	w := &suiteOnline{}
	e := testEnv()
	e.ref = map[string]string{"table.ext-mpc": digest(render(t, tbl))}
	if err := w.verify(e, suite.Result{Scenario: sc, Table: tbl}); err != nil {
		t.Fatalf("matching digest: %v", err)
	}
	e.ref["table.ext-mpc"] = strings.Repeat("0", 64)
	e.first = map[string]string{}
	e.check("mutated digest", w.verify(e, suite.Result{Scenario: sc, Table: tbl}))
	if e.failed != 1 {
		t.Error("a mutated reference digest must fail the operation")
	}
	// A table that changes between passes fails too.
	e = testEnv()
	e.check("pass 1", w.verify(e, suite.Result{Scenario: sc, Table: tbl}))
	e.check("pass 2", w.verify(e, suite.Result{Scenario: sc, Table: testTable("3")}))
	if e.failed != 1 {
		t.Errorf("a table differing between passes: %d failed, want 1", e.failed)
	}
}

func TestGeoPlanChecker(t *testing.T) {
	plan := &baseline.GeoRoutingPlan{Objective: 1000, ImportMWh: []float64{2, 0}, ExportMWh: []float64{0, 2}}
	e := testEnv()
	e.ref = map[string]string{"geo.objective.2": "1000.0001"}
	if err := checkGeoPlan(e, 2, plan); err != nil {
		t.Errorf("objective within 1e-6 relative: %v", err)
	}
	e.ref["geo.objective.2"] = "1000.01"
	if err := checkGeoPlan(e, 2, plan); err == nil {
		t.Error("objective off by 1e-5 relative passed")
	}
	e.ref = nil
	plan.ExportMWh[1] = 2.001
	if err := checkGeoPlan(e, 2, plan); err == nil {
		t.Error("unbalanced routing passed")
	}
}

// shortServe is serve-replay over two-day traces.
func shortServe(t *testing.T, e *env) *serveReplay {
	t.Helper()
	w := &serveReplay{days: 2, dir: t.TempDir(),
		slots: newSampler(1 << 10), ckpts: newSampler(1 << 6),
		diskSlots: newSampler(1 << 10), diskCkpts: newSampler(1 << 6)}
	e.workDir = w.dir
	if err := w.setup(e); err != nil {
		t.Fatal(err)
	}
	w.idle = http.NotFoundHandler()
	for i := range w.inputs {
		rep, err := engine.Simulate(engine.PolicySmartDPSS, w.inputs[i].opts, w.inputs[i].traces)
		if err != nil {
			t.Fatal(err)
		}
		if w.inputs[i].digest, err = reportDigest(rep); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestServeCheckerFailsOnMutatedReport(t *testing.T) {
	e := testEnv()
	w := shortServe(t, e)
	pass := w.pass(e)
	if err := pass(false); err != nil {
		t.Fatal(err)
	}
	w.diskRuns(e)
	// One round of daemons, one disk run per configuration, one resume.
	if want := len(w.inputs) + len(serveConfigs()) + 1; e.failed != 0 || e.attempted != want {
		t.Fatalf("clean runs: %d attempted (want %d), %d failed", e.attempted, want, e.failed)
	}
	if want := 2*24 - 1; w.slots.seen != len(w.inputs)*want {
		t.Errorf("%d slot intervals, want %d", w.slots.seen, len(w.inputs)*want)
	}

	w.inputs[fleetInput].digest = strings.Repeat("f", 64)
	if err := pass(false); err != nil {
		t.Fatal(err)
	}
	if e.failed != 1 {
		t.Errorf("a mutated report digest must fail the daemon run")
	}
	w.diskRuns(e)
	if e.failed != 3 {
		t.Errorf("a mutated report digest must fail the disk run and the resume: %d failed, want 3", e.failed)
	}
}

func TestCheckpointWaitsForScrapes(t *testing.T) {
	e := testEnv()
	w := shortServe(t, e)
	sess, err := newServeSession(w.inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	src := &timedSource{sess: sess, lock: &w.handler.mu}
	w.handler.mu.RLock() // a scrape in flight
	done := make(chan struct{})
	go func() {
		src.checkpoint()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("checkpoint ran while a scrape held the handler")
	case <-time.After(50 * time.Millisecond):
	}
	w.handler.mu.RUnlock()
	<-done
	if src.snapshots != 1 || src.snapErr != nil {
		t.Errorf("%d snapshots, error %v", src.snapshots, src.snapErr)
	}
}

func TestServeTracedDrive(t *testing.T) {
	e := testEnv()
	e.rec = newRecorder()
	w := shortServe(t, e)
	if err := w.pass(e)(true); err != nil {
		t.Fatal(err)
	}
	if e.failed != 0 {
		t.Fatalf("traced pass failed %d operations", e.failed)
	}
	if n := len(e.rec.durations("core.step_coarse")); n != 2 {
		t.Errorf("%d boundary steps, want 2", n)
	}
	if n := len(e.rec.durations("sim.snapshot")); n != 2 {
		t.Errorf("%d snapshots, want 2", n)
	}
	if n := len(e.rec.durations("serve.ingest_slot")); n != 47*len(w.inputs) {
		t.Errorf("%d ingest spans, want %d", n, 47*len(w.inputs))
	}
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	names := map[string]bool{}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
		names[w.Name] = true
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %v, code: %v", b.EndToEnd, endToEnd)
	}
	for i := range endToEnd {
		if b.EndToEnd[i] != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %v, code %v", i, b.EndToEnd[i], endToEnd[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, layers.json has %d", len(b.PerLayer), len(perLayer))
	}
	metricNames := map[string]bool{}
	endToEndNames := map[string]bool{}
	for _, d := range endToEnd {
		endToEndNames[d.Name] = true
	}
	for _, name := range reported {
		endToEndNames[name] = true
	}
	for _, d := range perLayer {
		metricNames[d.Name] = true
	}
	for i, d := range perLayer {
		if b.PerLayer[i] != d.metricDef {
			t.Errorf("per_layer[%d] = %v, layers.json %v", i, b.PerLayer[i], d.metricDef)
		}
		if d.Layer == "" || d.What == "" || len(d.On) == 0 {
			t.Errorf("%s: incomplete interaction entry", d.Name)
		}
		for _, w := range append(append([]string(nil), d.On...), d.NoChangeOn...) {
			if !names[w] {
				t.Errorf("%s names unknown workload %s", d.Name, w)
			}
		}
		for _, m := range d.Moves {
			if !endToEndNames[m] {
				t.Errorf("%s moves %s, not an end-to-end metric", d.Name, m)
			}
		}
	}
	for _, name := range suiteScenarios {
		if !metricNames["suite.scenario."+name+"_s"] {
			t.Errorf("scenario %s has no per-layer metric", name)
		}
	}
}

func TestServeReplayRunEndToEnd(t *testing.T) {
	e := testEnv()
	e.workDir = t.TempDir()
	e.budget = 300 * time.Millisecond
	w := &serveReplay{days: 2,
		slots: newSampler(1 << 12), ckpts: newSampler(1 << 8),
		diskSlots: newSampler(1 << 10), diskCkpts: newSampler(1 << 6)}
	if err := w.run(e); err != nil {
		t.Fatal(err)
	}
	if e.failed != 0 || e.attempted == 0 {
		t.Fatalf("%d of %d operations failed", e.failed, e.attempted)
	}
	if len(e.walls) < 3 || len(e.setups) < minSetups {
		t.Errorf("%d passes, %d set-ups", len(e.walls), len(e.setups))
	}
	res, lines, err := e.result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) || len(lines) == 0 {
		t.Errorf("result %+v", res)
	}
	for _, d := range endToEnd {
		if m := res.Metrics[d.Name]; m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("%s = %+v", d.Name, m)
		}
	}
	printed := map[string]bool{}
	for _, d := range endToEnd {
		printed[d.Name] = true
	}
	for _, name := range reported {
		printed[name] = true
	}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) < 2 || !printed[f[1]] {
			t.Errorf("printed line %q names no end-to-end metric", l)
		}
	}
}
