// Command dpssbench is the repository benchmark. It runs one of three
// workloads for a fixed time, checks every output the workload
// produces, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced run) as one JSON object on the last line
// of standard output:
//
//	bash dpssbench/run.sh --workload geo-lp --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//	suite-online  the 31-day scenario suite minus geo-div and ext-annual
//	              (25 scenarios) through the suite pool at 2 workers
//	geo-lp        one geo-div point: 3 sites, ±30 % prices, 5 $/MWh
//	              import penalty, coupled routing LP, sequential
//	serve-replay  back-to-back serve daemons over 365-day replay traces,
//	              checkpointing every 24 slots, scraped at 100/s
//
// The workload seed is an argument; the program under test only sees the
// inputs generated from it. layers.json lists every per-layer metric
// with the end-to-end metric and workload it should move.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef declares one metric: its name, unit and direction.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// layerDef is a per-layer metric with its place in the interaction map:
// the end-to-end metrics it should move, on which workloads, and the
// workloads where it should not change.
type layerDef struct {
	metricDef
	Layer      string   `json:"layer"`
	What       string   `json:"what"`
	Moves      []string `json:"moves"`
	On         []string `json:"on"`
	NoChangeOn []string `json:"no_change_on"`
}

// endToEnd are the gated metrics of an untraced run. Pass wall time is
// printed on every run but not gated: on a shared host the speed of the
// machine drifts by tens of percent over a minute, more than any bound a
// gate could allow, while these counts repeat within a few percent.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"allocs", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// reported are the end-to-end values an untraced run prints before its
// JSON line but does not gate: pass time, the error rate and the
// workload's own figures. With the gated metrics they are what
// layers.json may name as moved.
var reported = []string{
	"wall_s", "wall_q1_s", "wall_q3_s", "passes", "error_rate",
	"all_in_usd_per_slot",
	"slots_per_s", "slot_p50_us", "slot_p99_us", "slot_samples", "scrape_p99_us", "scrapes",
}

//go:embed layers.json
var layersJSON []byte

//go:embed reference.json
var referenceJSON []byte

// perLayer are the metrics of a traced run, from layers.json.
var perLayer = mustLayers(layersJSON)

func mustLayers(data []byte) []layerDef {
	var defs []layerDef
	if err := json.Unmarshal(data, &defs); err != nil {
		panic(fmt.Sprintf("layers.json: %v", err))
	}
	return defs
}

// Paths relative to the repository root, where the benchmark runs.
const (
	workDir   = ".bench_build"
	goldenDir = "internal/experiments/testdata/golden"
)

// references maps workload → seed → output name → recorded value.
type references map[string]map[string]map[string]string

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) error{
	"suite-online": runSuiteOnline,
	"geo-lp":       runGeoLP,
	"serve-replay": runServeReplay,
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpssbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "workload: suite-online, geo-lp or serve-replay")
		seed      = fs.Int64("seed", 1, "workload seed; inputs are generated from it")
		seconds   = fs.Int("seconds", 10, "length of the timed phase in seconds")
		traceMode = fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		record    = fs.String("record", "", "merge this run's reference outputs into the given reference file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "dpssbench: need --workload suite-online|geo-lp|serve-replay, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		fmt.Fprintf(stderr, "dpssbench: reference.json: %v\n", err)
		return 1
	}
	seedKey := strconv.FormatInt(*seed, 10)
	e := &env{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		stderr:   stderr,
		workDir:  workDir,
		ref:      refs[*workload][seedKey],
		observed: make(map[string]string),
		first:    make(map[string]string),
		layer:    make(map[string]float64),
	}
	if *traceMode == 1 {
		e.rec = newRecorder()
	}
	if err := runner(e); err != nil {
		fmt.Fprintf(stderr, "dpssbench: %s: %v\n", *workload, err)
		return 1
	}
	res, lines, err := e.result()
	if err != nil {
		fmt.Fprintf(stderr, "dpssbench: %s: %v\n", *workload, err)
		return 1
	}
	if e.rec != nil {
		path := filepath.Join(e.workDir, "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := e.rec.write(path); err != nil {
			fmt.Fprintf(stderr, "dpssbench: write spans: %v\n", err)
			return 1
		}
	}
	if *record != "" {
		if err := recordReference(*record, *workload, seedKey, e.observed); err != nil {
			fmt.Fprintf(stderr, "dpssbench: record: %v\n", err)
			return 1
		}
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "dpssbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// recordReference merges outputs into the reference file at path.
func recordReference(path, workload, seed string, outputs map[string]string) error {
	refs := references{}
	data, err := os.ReadFile(path)
	if err == nil {
		if err := json.Unmarshal(data, &refs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if refs[workload] == nil {
		refs[workload] = make(map[string]map[string]string)
	}
	refs[workload][seed] = outputs
	data, err = json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// env carries one benchmark run: its flags, the operation tally, the
// timing samples and the per-layer values a workload sets.
type env struct {
	workload string
	seed     int64
	budget   time.Duration
	stderr   io.Writer
	rec      *recorder         // nil in untraced runs
	workDir  string            // checkpoints and the span file
	ref      map[string]string // recorded outputs for this workload and seed
	observed map[string]string // this run's outputs, for --record
	first    map[string]string // first value of each repeated output

	attempted, failed int

	setups      []float64 // seconds per set-up
	walls       []float64 // seconds per untraced pass
	tracedWalls []float64 // seconds per traced pass
	allocBytes  []float64 // heap bytes per untraced pass
	allocObjs   []float64 // heap objects per untraced pass
	layer       map[string]float64
	extra       []extraMetric // workload-specific end-to-end values, printed only
}

type extraMetric struct {
	name, unit string
	value      float64
}

// Set-up time is a median over batches of set-ups. A batch repeats the
// set-up until it spans setupBatch and gives the mean time of one; at
// least minSetups batches run, until together they span setupFloor.
// Batching keeps a set-up of microseconds from being a timing of the
// clock and the caches a collection has just emptied.
const (
	minSetups  = 5
	setupBatch = 50 * time.Millisecond
	setupFloor = 2 * time.Second
)

// check tallies one operation; a non-nil err counts it as failed.
func (e *env) check(op string, err error) bool {
	e.attempted++
	if err != nil {
		e.failed++
		fmt.Fprintf(e.stderr, "dpssbench: %s: %s: %v\n", e.workload, op, err)
		return false
	}
	return true
}

// setup runs fn repeatedly and records the time of one run per batch;
// the last run's results are what the timed phase uses.
func (e *env) setup(fn func() error) error {
	start := time.Now()
	for i := 0; i < minSetups || time.Since(start) < setupFloor; i++ {
		runtime.GC()
		t0 := time.Now()
		var n int
		var d time.Duration
		for n == 0 || d < setupBatch {
			if err := fn(); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			n++
			d = time.Since(t0)
		}
		e.setups = append(e.setups, d.Seconds()/float64(n))
	}
	return nil
}

// timed runs passes until the time budget is spent, at least minPasses
// times. A traced run alternates untraced and traced passes, so the
// tracing overhead compares passes made under the same conditions; it
// makes at least one pair.
func (e *env) timed(minPasses int, pass func(traced bool) error) error {
	if e.rec != nil {
		minPasses = 2
	}
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < e.budget; i++ {
		runtime.GC()
		if err := pass(e.rec != nil && i%2 == 1); err != nil {
			return err
		}
	}
	return nil
}

// pass records one pass's end-to-end measurement.
func (e *env) pass(m measured, traced bool) {
	if traced {
		e.tracedWalls = append(e.tracedWalls, m.wall.Seconds())
		return
	}
	e.walls = append(e.walls, m.wall.Seconds())
	e.allocBytes = append(e.allocBytes, float64(m.allocBytes))
	e.allocObjs = append(e.allocObjs, float64(m.allocObject))
}

// same checks a deterministic output against the reference recorded for
// this seed, if any, and against its first value in this run; --record
// stores it as the seed's reference.
func (e *env) same(key, got string) error {
	if want, ok := e.ref[key]; ok && want != got {
		return fmt.Errorf("%s = %s, reference %s", key, got, want)
	}
	e.observed[key] = got
	return e.repeats(key, got)
}

// repeats checks that an output equals its first value in this run. It
// suits outputs that must be deterministic but may legitimately change
// between versions, such as an LP's choice among equally optimal
// vertices.
func (e *env) repeats(key, got string) error {
	if first, ok := e.first[key]; ok && first != got {
		return fmt.Errorf("%s = %s, first pass gave %s", key, got, first)
	}
	e.first[key] = got
	return nil
}

// result assembles the output line and the human-readable metric lines.
func (e *env) result() (result, []string, error) {
	res := result{
		Correct:   e.failed == 0 && e.attempted > 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   make(map[string]metric),
	}
	if e.attempted == 0 {
		return res, nil, errors.New("no operation attempted")
	}
	errorRate := float64(e.failed) / float64(e.attempted)
	var lines []string
	put := func(name, unit string, v float64) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	show := func(name, unit string, v float64) {
		lines = append(lines, fmt.Sprintf("%-14s %-34s %14.6g %s", e.workload, name, v, unit))
	}
	if e.rec == nil {
		rss, err := peakRSSMB()
		if err != nil {
			return res, nil, fmt.Errorf("peak RSS: %w", err)
		}
		vals := map[string]float64{
			"setup_s":     median(e.setups),
			"alloc_mb":    median(e.allocBytes) / 1e6,
			"allocs":      median(e.allocObjs),
			"peak_rss_mb": rss,
		}
		for _, d := range endToEnd {
			v := vals[d.Name]
			if math.IsNaN(v) || v <= 0 {
				return res, nil, fmt.Errorf("end-to-end metric %s = %v", d.Name, v)
			}
			put(d.Name, d.Unit, v)
			show(d.Name, d.Unit, v)
		}
		show("wall_s", "s", median(e.walls))
		show("error_rate", "ratio", errorRate)
		for _, x := range e.extra {
			show(x.name, x.unit, x.value)
		}
		show("wall_q1_s", "s", percentile(e.walls, 0.25))
		show("wall_q3_s", "s", percentile(e.walls, 0.75))
		show("passes", "count", float64(len(e.walls)))
		return res, lines, nil
	}

	e.layer["bench.error_rate"] = errorRate
	e.layer["engine.generate_traces_ms"] = orZero(median(e.rec.durations("engine.generate_traces"))) * 1e3
	e.layer["bench.wall_s"] = orZero(median(e.walls))
	e.layer["trace.wall_s"] = orZero(median(e.tracedWalls))
	if u := median(e.walls); u > 0 {
		e.layer["trace.overhead_ratio"] = orZero(median(e.tracedWalls) / u)
	}
	known := make(map[string]bool, len(perLayer))
	for _, d := range perLayer {
		known[d.Name] = true
		v := e.layer[d.Name]
		put(d.Name, d.Unit, v)
		show(d.Name, d.Unit, v)
	}
	var unknown []string
	for name := range e.layer {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return res, nil, fmt.Errorf("per-layer values missing from layers.json: %v", unknown)
	}
	return res, lines, nil
}
