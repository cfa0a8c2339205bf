// Command perf turns `go test -bench -benchmem` output into the
// repository's machine-readable benchmark trajectory file (BENCH_*.json)
// and gates allocation regressions in CI.
//
// Usage:
//
//	go test -bench='...' -benchmem -run '^$' . | go run ./cmd/perf -out BENCH_4.json
//	go test -bench='...' -benchmem -run '^$' . | go run ./cmd/perf -check BENCH_4.json -out /tmp/bench.json
//
// The tool reads benchmark result lines from stdin. With -out it writes
// a JSON file holding the parsed numbers as the "current" block; when
// the output file already exists (or -check names a committed file) its
// "baseline" block is carried over unchanged, so the pre-refactor
// reference measurements survive regeneration.
//
// With -check FILE the parsed results are additionally compared against
// FILE's "current" block: the run fails (exit 1) when the allocation
// count of any gated benchmark regresses beyond the tolerance, or when a
// gated benchmark is missing from the run or from FILE.
// Allocations per op are deterministic — unlike ns/op they do not
// depend on CI machine load — which makes them the right regression
// signal for an allocation-free hot path. A second gate family runs on
// the -check path: coarse absolute wall-clock budgets (the annual LP's
// ≤20 s hyper-sparsity pin). Every gate fails loud: a gated benchmark
// absent from the parsed input fails the check rather than passing it
// silently.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
)

// Result is one benchmark measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Block is a named set of measurements with provenance.
type Block struct {
	Note       string            `json:"note,omitempty"`
	Go         string            `json:"go,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// File is the on-disk BENCH_*.json schema.
type File struct {
	Schema   string `json:"schema"`
	Baseline *Block `json:"baseline,omitempty"`
	Current  *Block `json:"current"`
}

// gated lists the benchmarks whose allocs/op may not regress, with the
// multiplicative headroom the check allows (buffer-growth paths can
// differ by a few allocations between environments).
var gated = map[string]float64{
	"BenchmarkDefaultsSimulation":       1.10,
	"BenchmarkFleetDispatch":            1.10,
	"BenchmarkAblationP5LP":             1.10,
	"BenchmarkAblationOfflineHorizonLP": 1.10,
	// The geo fan-out gate: allocations are proportional to site count
	// (setup only), with zero allocations in the per-slot sharded step.
	// A regression that allocates per slot multiplies allocs/op by the
	// 168-slot horizon and trips every fleet size at once.
	"BenchmarkGeoStep/sites=1": 1.10,
	"BenchmarkGeoStep/sites=2": 1.10,
	"BenchmarkGeoStep/sites=4": 1.10,
	"BenchmarkGeoStep/sites=8": 1.10,
	// One tuner objective evaluation: the unit of work RunTune repeats
	// for its whole budget, so a per-evaluation allocation regression
	// multiplies across every tuning run.
	"BenchmarkTuneEvaluate": 1.10,
	// One checkpoint of a mid-horizon fleet session: encoded in
	// session-owned storage, it allocates only the returned slice, so
	// any per-call boxing or marshalling copy shows up as a regression.
	"BenchmarkSessionSnapshot": 1.10,
	// The geo-div point's coupled routing+supply LP on the sparse
	// revised simplex: geometric factor/eta/model growth and the flat
	// term arena hold it to a few hundred allocations, where per-row
	// term copies or exact-length regrowth cost thousands.
	"BenchmarkGeoLP": 1.10,
}

// wallGates are absolute wall-clock budgets in ns/op. Unlike the alloc
// gate these are machine-load sensitive, so each budget carries roughly
// 2x headroom over the measured value and exists to catch
// order-of-magnitude regressions, not percent-level drift. The
// annual entry pins the hyper-sparse revised simplex: the year-long
// (8760-slot) whole-horizon LP measured ~10 s when the hyper-sparse
// FTRAN/BTRAN kernels landed, versus ~200 s before them — a return to
// the dense-vector per-pivot cost blows this budget immediately.
var wallGates = map[string]float64{
	"BenchmarkAblationOfflineAnnualLP": 20e9,
}

var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+(\d+) B/op\s+(\d+) allocs/op`)

func main() {
	out := flag.String("out", "", "write the parsed results to this JSON file")
	check := flag.String("check", "", "fail if allocs/op regress versus this committed JSON file")
	note := flag.String("note", "", "provenance note stored with the current block")
	flag.Parse()

	// Pass the raw output through for the log.
	results, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}

	if *check != "" {
		committed, err := load(*check)
		if err != nil {
			fatalf("loading %s: %v", *check, err)
		}
		if err := gate(results, committed, os.Stdout); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("perf: allocation gate passed against %s\n", *check)
		if err := gateWall(results, os.Stdout); err != nil {
			fatalf("%v", err)
		}
	}

	if *out != "" {
		f := File{Schema: "smartdpss-bench/v1"}
		// Carry the committed baseline block forward so regeneration never
		// loses the pre-refactor reference.
		for _, prev := range []string{*out, *check} {
			if prev == "" {
				continue
			}
			if old, err := load(prev); err == nil && old.Baseline != nil {
				f.Baseline = old.Baseline
				break
			}
		}
		f.Current = &Block{Note: *note, Go: runtime.Version(), Benchmarks: results}
		buf, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fatalf("encoding: %v", err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatalf("writing %s: %v", *out, err)
		}
		fmt.Printf("perf: wrote %s (%d benchmarks)\n", *out, len(results))
	}
}

// parse reads `go test -bench -benchmem` output from r, copying every
// line to echo, and returns the result lines keyed by benchmark name
// (the -N GOMAXPROCS suffix stripped). Input without a single result
// line is an error.
func parse(r io.Reader, echo io.Writer) (map[string]Result, error) {
	results := make(map[string]Result)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		bytes, _ := strconv.ParseInt(m[3], 10, 64)
		allocs, _ := strconv.ParseInt(m[4], 10, 64)
		results[m[1]] = Result{NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading benchmark output: %w", err)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found on stdin (did you pass -benchmem?)")
	}
	return results, nil
}

func load(path string) (*File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

// gate compares fresh allocs/op against the committed current block,
// reporting each passed gate to w. Every gated benchmark must be present
// on both sides: a gate without its committed reference fails instead
// of passing silently.
func gate(fresh map[string]Result, committed *File, w io.Writer) error {
	if committed.Current == nil {
		return fmt.Errorf("committed file has no current block")
	}
	for name, slack := range gated {
		want, ok := committed.Current.Benchmarks[name]
		if !ok {
			return fmt.Errorf("gated benchmark %s missing from the committed file; record it with make perf", name)
		}
		got, ok := fresh[name]
		if !ok {
			return fmt.Errorf("gated benchmark %s missing from this run", name)
		}
		limit := int64(float64(want.AllocsPerOp)*slack) + 2
		if got.AllocsPerOp > limit {
			return fmt.Errorf("%s allocations regressed: %d allocs/op vs committed %d (limit %d)",
				name, got.AllocsPerOp, want.AllocsPerOp, limit)
		}
		fmt.Fprintf(w, "perf: %s at %d allocs/op (committed %d, limit %d)\n",
			name, got.AllocsPerOp, want.AllocsPerOp, limit)
	}
	return nil
}

// gateWall enforces the absolute wall-clock budgets. Every budgeted
// benchmark must have been measured in this run.
func gateWall(fresh map[string]Result, w io.Writer) error {
	for name, budget := range wallGates {
		got, ok := fresh[name]
		if !ok {
			return fmt.Errorf("wall-gated benchmark %s missing from this run", name)
		}
		if got.NsPerOp > budget {
			return fmt.Errorf("%s wall clock %.1f s exceeds the %.0f s budget",
				name, got.NsPerOp/1e9, budget/1e9)
		}
		fmt.Fprintf(w, "perf: %s at %.1f s (budget %.0f s)\n", name, got.NsPerOp/1e9, budget/1e9)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perf: "+format+"\n", args...)
	os.Exit(1)
}
