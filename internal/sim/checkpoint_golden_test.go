package sim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/smartdpss/smartdpss/internal/engine"
)

// update regenerates the golden checkpoints instead of diffing against
// them:
//
//	go test ./internal/sim -run TestCheckpointGolden -update
//
// Regenerating them is a checkpoint format change and needs a new
// sim.CheckpointVersion. The files were last regenerated for version 2,
// whose bytes differ from version 1's only in "version" and
// "configHash" (the engine options fingerprint lost a field); any other
// difference in a regeneration is a real encoding change.
var update = flag.Bool("update", false, "rewrite testdata/checkpoint goldens")

// ckptDays and ckptCut pin the golden checkpoints: a week of the default
// traces, snapshotted at slot 100 — mid-interval, so the market account
// carries an open coarse commitment and the backlog holds cohorts.
const (
	ckptDays = 7
	ckptCut  = 100
)

type ckptCase struct {
	name   string
	policy engine.Policy
	opts   engine.Options
}

// checkpointCases are the golden configurations: the paper defaults,
// the LP-solved P5 arm, a two-unit fleet under the commitment window,
// the noise-wrapped controller (nested state and RNG position) and the
// two other snapshottable policies.
func checkpointCases() []ckptCase {
	paper := engine.DefaultOptions()
	lp := engine.DefaultOptions()
	lp.UseLP = true
	fleet := engine.DefaultOptions()
	fleet.Fleet = []engine.UnitSpec{
		{CapacityMW: 0.5, MinLoadFrac: 0.2, FuelUSDPerMWh: 39, StartupUSD: 10},
		{CapacityMW: 0.5, MinLoadFrac: 0.2, FuelUSDPerMWh: 43, StartupUSD: 10},
	}
	fleet.CommitWindow = 6
	noise := engine.DefaultOptions()
	noise.ObservationNoise = 0.5
	noise.NoiseSeed = 7
	return []ckptCase{
		{"paper", engine.PolicySmartDPSS, paper},
		{"uselp", engine.PolicySmartDPSS, lp},
		{"fleet", engine.PolicySmartDPSS, fleet},
		{"noise", engine.PolicySmartDPSS, noise},
		{"lyapunov", engine.PolicyLyapunov, paper},
		{"impatient", engine.PolicyImpatient, paper},
	}
}

func ckptTraces(tb testing.TB) *engine.Traces {
	tb.Helper()
	tc := engine.DefaultTraceConfig()
	tc.Days = ckptDays
	traces, err := engine.GenerateTraces(tc)
	if err != nil {
		tb.Fatal(err)
	}
	return traces
}

// replayTo builds a replay session and commits slots until it reaches cut.
func replayTo(tb testing.TB, c ckptCase, traces *engine.Traces, cut int) *engine.Session {
	tb.Helper()
	s, err := engine.NewReplaySession(c.policy, c.opts, traces)
	if err != nil {
		tb.Fatal(err)
	}
	for s.Slot() < cut {
		if _, err := s.StepReplay(); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "checkpoint", name+".json")
}

func reportJSON(tb testing.TB, rep *engine.Report) string {
	tb.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

// TestCheckpointGolden pins the checkpoint format byte for byte: the
// snapshot of every golden configuration equals its committed file, and
// the committed file restores onto a mid-run session that then finishes
// bit-identically to an uninterrupted batch run.
func TestCheckpointGolden(t *testing.T) {
	traces := ckptTraces(t)
	for _, c := range checkpointCases() {
		t.Run(c.name, func(t *testing.T) {
			blob, err := replayTo(t, c, traces, ckptCut).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			path := goldenPath(c.name)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, want) {
				t.Fatalf("checkpoint differs from %s:\ngot:  %s\nwant: %s", path, blob, want)
			}

			// Restore onto a session already 40 slots into its own run:
			// every piece of its state must be replaced.
			s := replayTo(t, c, traces, 40)
			if err := s.Restore(want); err != nil {
				t.Fatal(err)
			}
			for !s.Done() {
				if _, err := s.StepReplay(); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			batch, err := engine.Simulate(c.policy, c.opts, traces)
			if err != nil {
				t.Fatal(err)
			}
			if reportJSON(t, got) != reportJSON(t, batch) {
				t.Error("run resumed from the golden checkpoint differs from the uninterrupted run")
			}
		})
	}
}
