package sim_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"

	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/sim"
)

// TestSnapshotAllocatesOnlyItsResult pins the encoder's allocation
// contract: once the first Snapshot has set up the session's scratch,
// every further Snapshot makes exactly one allocation (the slice it
// returns) and AppendSnapshot into a buffer with room makes none — for
// every snapshottable configuration, the noise wrapper's nested blob
// and the two-unit fleet included.
func TestSnapshotAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through encoding/json's pool are not deterministic under -race")
	}
	traces := ckptTraces(t)
	for _, c := range checkpointCases() {
		t.Run(c.name, func(t *testing.T) {
			s := replayTo(t, c, traces, ckptCut)
			first, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var blob []byte
			if n := testing.AllocsPerRun(20, func() { blob, err = s.Snapshot() }); n != 1 {
				t.Errorf("Snapshot: %v allocations per call, want 1", n)
			}
			if err != nil || !bytes.Equal(blob, first) {
				t.Fatalf("repeated Snapshot differs from the first (err %v)", err)
			}

			buf := make([]byte, 0, 2*len(first))
			if n := testing.AllocsPerRun(20, func() { buf, err = s.AppendSnapshot(buf[:0]) }); n != 0 {
				t.Errorf("AppendSnapshot into a sized buffer: %v allocations per call, want 0", n)
			}
			if err != nil || !bytes.Equal(buf, first) {
				t.Fatalf("AppendSnapshot bytes differ from Snapshot (err %v)", err)
			}

			// The result is the caller's: encoding again must not write
			// through a slice handed out earlier.
			keep := append([]byte(nil), first...)
			if _, err := s.StepReplay(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, keep) {
				t.Error("a later Snapshot overwrote an earlier result")
			}
		})
	}
}

// mutateCheckpoint decodes a checkpoint generically, applies mut and
// re-encodes it. Field order changes, values do not: float64 values
// round-trip exactly.
func mutateCheckpoint(t *testing.T, blob []byte, mut func(cp map[string]any)) []byte {
	t.Helper()
	var cp map[string]any
	if err := json.Unmarshal(blob, &cp); err != nil {
		t.Fatal(err)
	}
	mut(cp)
	out, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRestoreIsAllOrNothing: a checkpoint that passes the header checks
// but carries one bad component — an out-of-range market price, a bad
// second fleet unit, a corrupt controller blob — fails with
// ErrCorruptCheckpoint and leaves the session exactly as it was: same
// slot, same Snapshot bytes. The golden checkpoint still restores onto
// the same session afterwards.
func TestRestoreIsAllOrNothing(t *testing.T) {
	traces := ckptTraces(t)
	var fleet ckptCase
	for _, c := range checkpointCases() {
		if c.name == "fleet" {
			fleet = c
		}
	}
	golden, err := os.ReadFile(goldenPath(fleet.name))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(cp map[string]any)
	}{
		{"market price above cap", func(cp map[string]any) {
			cp["market"].(map[string]any)["ltPrice"] = 1e9
		}},
		{"second fleet unit", func(cp map[string]any) {
			cp["fleet"].([]any)[1].(map[string]any)["outputMWh"] = -1
		}},
		{"controller state", func(cp map[string]any) {
			cp["controllerState"] = map[string]any{"qT": "not a number"}
		}},
		{"missing controller state", func(cp map[string]any) {
			delete(cp, "controllerState")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := replayTo(t, fleet, traces, 40)
			before, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			err = s.Restore(mutateCheckpoint(t, golden, tc.mut))
			if !errors.Is(err, sim.ErrCorruptCheckpoint) {
				t.Fatalf("Restore err = %v, want ErrCorruptCheckpoint", err)
			}
			if s.Slot() != 40 {
				t.Errorf("slot after a failed Restore = %d, want 40", s.Slot())
			}
			after, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Errorf("failed Restore changed the session:\nbefore: %s\nafter:  %s", before, after)
			}
			if err := s.Restore(golden); err != nil || s.Slot() != ckptCut {
				t.Fatalf("golden Restore after a failed one: slot %d, err %v", s.Slot(), err)
			}
		})
	}
}

// FuzzRestore feeds mutated checkpoints to Restore. Whatever the bytes —
// truncated, bit-flipped, version-skewed, or a checkpoint of another
// configuration — Restore must not panic, must fail only with
// ErrSnapshotMismatch or ErrCorruptCheckpoint, and a failed Restore must
// leave the session's slot and state unchanged. A successful one must
// leave a session that steps without panicking. The corpus seeds are
// the golden checkpoints of every configuration, so plain `go test`
// replays them.
//
//	go test ./internal/sim -run '^$' -fuzz FuzzRestore -fuzztime 30s
func FuzzRestore(f *testing.F) {
	cases := checkpointCases()
	for i, c := range cases {
		blob, err := os.ReadFile(goldenPath(c.name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), blob)
		f.Add(uint8(i), blob[:len(blob)/2])
		f.Add(uint8(i), bytes.Replace(blob, // version skew
			fmt.Appendf(nil, `"version":%d`, sim.CheckpointVersion),
			fmt.Appendf(nil, `"version":%d`, sim.CheckpointVersion+1), 1))
		f.Add(uint8(i+1), blob) // another configuration's checkpoint
	}
	traces := ckptTraces(f)
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		c := cases[int(which)%len(cases)]
		s := replayTo(t, c, traces, 30)
		before, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(data); err != nil {
			if !errors.Is(err, engine.ErrSnapshotMismatch) && !errors.Is(err, engine.ErrCorruptCheckpoint) {
				t.Fatalf("Restore err = %v, want ErrSnapshotMismatch or ErrCorruptCheckpoint", err)
			}
			after, serr := s.Snapshot()
			if s.Slot() != 30 || serr != nil || !bytes.Equal(before, after) {
				t.Fatalf("failed Restore (%v) changed the session: slot %d, snapshot err %v", err, s.Slot(), serr)
			}
			return
		}
		// Mutated but valid state may legitimately fail a later slot's
		// checks; it may not panic.
		for i := 0; i < 3 && !s.Done(); i++ {
			if _, err := s.StepReplay(); err != nil {
				break
			}
		}
	})
}
