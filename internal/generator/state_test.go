package generator

import (
	"strings"
	"testing"
)

// driveUnit runs a unit through a start (paying lag and startup cost)
// and a few dispatch slots so every mutable field is non-zero.
func driveUnit(t *testing.T, g *Generator) {
	t.Helper()
	for i := 0; i < 4; i++ {
		g.Tick()
		g.DispatchAt(0.4, 1.1)
	}
	if g.EnergyTotal() == 0 || g.Starts() == 0 {
		t.Fatalf("unit did not run: energy=%g starts=%d", g.EnergyTotal(), g.Starts())
	}
}

func TestGeneratorStateRoundTrip(t *testing.T) {
	p := testParams()
	p.StartupLagSlots = 1
	p.CO2KgPerMWh = 500
	mk := func() *Generator {
		g, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	ref := mk()
	driveUnit(t, ref)
	snap := ref.State()
	if !snap.Running || snap.EnergyMWh == 0 || snap.StartupUSD == 0 || snap.CO2Kg == 0 {
		t.Fatalf("snapshot missed state: %+v", snap)
	}
	if snap.OutputMWh != ref.Output() {
		t.Fatalf("snapshot output %g, unit reports %g", snap.OutputMWh, ref.Output())
	}

	fresh := mk()
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.State() != snap {
		t.Fatalf("restored state %+v, want %+v", fresh.State(), snap)
	}

	// The restored unit must evolve identically to the original.
	refOut := ref.DispatchAt(0.6, 1.0)
	freshOut := fresh.DispatchAt(0.6, 1.0)
	if refOut != freshOut {
		t.Fatalf("post-restore dispatch diverged: %+v vs %+v", refOut, freshOut)
	}
}

func TestGeneratorRestoreRejectsCorruptState(t *testing.T) {
	p := testParams()
	p.StartupLagSlots = 2
	g, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*State)
		want   string
	}{
		{"negative countdown", func(s *State) { s.Countdown = -1 }, "countdown"},
		{"countdown beyond lag", func(s *State) { s.Countdown = 3 }, "countdown"},
		{"negative output", func(s *State) { s.OutputMWh = -0.1 }, "output"},
		{"output beyond capacity", func(s *State) { s.OutputMWh = 2 }, "output"},
	}
	for _, tc := range cases {
		s := g.State()
		tc.mutate(&s)
		err := g.Restore(s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore() = %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestFleetStateRoundTrip(t *testing.T) {
	mk := func() *Fleet {
		f, err := NewFleet(fleetSpecs())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	ref := mk()
	for i := 0; i < 3; i++ {
		ref.Tick()
		ref.Dispatch(ref.SplitTotal(1.2), 1.0)
	}
	// AppendState appends after whatever dst already holds.
	prefix := []State{{Starts: -1}}
	states := ref.AppendState(prefix)
	if len(states) != 1+ref.Size() || states[0] != prefix[0] {
		t.Fatalf("AppendState() returned %d entries, want the prefix plus %d units", len(states), ref.Size())
	}
	states = states[1:]
	// Appending into enough capacity reuses it.
	buf := make([]State, 0, ref.Size())
	if allocs := testing.AllocsPerRun(10, func() { buf = ref.AppendState(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendState into a sized buffer: %v allocs, want 0", allocs)
	}

	fresh := mk()
	if err := fresh.Restore(states); err != nil {
		t.Fatal(err)
	}
	if fresh.Totals() != ref.Totals() {
		t.Fatalf("restored totals %+v, want %+v", fresh.Totals(), ref.Totals())
	}
	refOuts := ref.Dispatch(ref.SplitTotal(0.9), 1.0)
	freshOuts := fresh.Dispatch(fresh.SplitTotal(0.9), 1.0)
	for i := range refOuts {
		if refOuts[i] != freshOuts[i] {
			t.Fatalf("unit %d diverged after restore: %+v vs %+v", i, refOuts[i], freshOuts[i])
		}
	}
}

func TestFleetStateEmptyAndMismatch(t *testing.T) {
	empty, err := NewFleet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.AppendState(nil) != nil {
		t.Fatal("empty fleet must snapshot to nil")
	}
	if err := empty.Restore(nil); err != nil {
		t.Fatalf("empty fleet restore: %v", err)
	}

	f, err := NewFleet(fleetSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Restore(make([]State, 1)); err == nil {
		t.Fatal("unit-count mismatch accepted")
	}
	// A corrupt per-unit state surfaces the unit index.
	states := f.AppendState(nil)
	states[1].OutputMWh = -1
	if err := f.Restore(states); err == nil || !strings.Contains(err.Error(), "unit 1") {
		t.Fatalf("corrupt unit state: Restore() = %v, want unit 1 error", err)
	}
}
