package baseline

import (
	"math"
	"testing"

	"github.com/smartdpss/smartdpss/internal/generator"
	"github.com/smartdpss/smartdpss/internal/sim"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// testFleet is a small two-unit fleet exercising the commitment-linking
// rows (startup cost, minimum stable load) in the horizon LPs.
func testFleet() []generator.Params {
	return []generator.Params{
		{CapacityMWh: 1.5, MinLoadMWh: 0.3, FuelUSDPerMWh: 40, StartupUSD: 20},
		{CapacityMWh: 0.8, FuelUSDPerMWh: 25},
	}
}

// intervalLPSum solves the horizon interval by interval on the
// production interval LP (solveInterval in row mode, as OfflineOptimal
// runs it), carrying each interval's planned end battery level and any
// planned leftover backlog into the next, and returns the summed
// objectives. The sum is the cost of one feasible horizon plan, so it
// upper-bounds the whole-horizon LP's objective.
func intervalLPSum(t *testing.T, cfg Config, set *trace.Set) float64 {
	t.Helper()
	st := lpState{rowBounds: true}
	bat := cfg.Battery
	b, q, sum := bat.InitialMWh, 0.0, 0.0
	for start := 0; start < set.Horizon(); start += cfg.T {
		n := minInt(cfg.T, set.Horizon()-start)
		_, plan, err := st.solveInterval(cfg, set, start, n, b, q)
		if err != nil {
			t.Fatal(err)
		}
		sum += st.lastSolution.Objective
		for i, dec := range plan {
			b += bat.ChargeEff*dec.Charge - bat.DischargeEff*dec.Discharge
			q += set.DemandDT.At(start+i) - dec.ServeDT
		}
		q = math.Max(q, 0)
	}
	return sum
}

// TestHorizonMatchesIntervalLPs checks the staircase horizon LP's
// objective against the golden-pinned per-interval LP: a one-interval
// horizon is the same program and must match it; without a battery
// nothing couples the intervals, so a multi-interval horizon must equal
// the interval sum; with one, cross-interval planning may only lower
// the cost below the interval chain's.
func TestHorizonMatchesIntervalLPs(t *testing.T) {
	for _, days := range []int{1, 3} {
		set := testTraces(t, days)
		for _, fleet := range []bool{false, true} {
			base := DefaultConfig()
			if fleet {
				base.Fleet = testFleet()
			}
			oneInterval := base
			oneInterval.T = set.Horizon()
			batteryFree := base
			batteryFree.T = 12
			batteryFree.Battery.MaxChargeMWh = 0
			batteryFree.Battery.MaxDischargeMWh = 0
			battery := base
			battery.T = 12

			for _, c := range []struct {
				name  string
				cfg   Config
				exact bool
			}{
				{"one interval", oneInterval, true},
				{"battery-free", batteryFree, true},
				{"battery", battery, false},
			} {
				h, err := NewOfflineHorizon(c.cfg, set)
				if err != nil {
					t.Fatal(err)
				}
				got := h.st.lastSolution.Objective
				ref := intervalLPSum(t, c.cfg, set)
				tol := 1e-7 * (1 + math.Abs(ref))
				if got > ref+tol || (c.exact && got < ref-tol) {
					t.Errorf("days=%d fleet=%v %s: horizon objective %.10g vs interval LPs %.10g (diff %g)",
						days, fleet, c.name, got, ref, got-ref)
				}
			}
		}
	}
}

// TestHorizonStairPlanReplaysComparably: beyond objective parity, the
// replayed (executed) cost of the staircase plan must be within clamping
// noise of the cost the LP planned for it — the replay clamps each
// decision to what the simulator allows, but may not turn the optimum
// into a materially worse schedule.
func TestHorizonStairPlanReplaysComparably(t *testing.T) {
	cfg := DefaultConfig()
	cfg.T = 12
	set := testTraces(t, 3)

	stair, err := NewOfflineHorizon(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	stairRep, err := sim.Run(simConfig(cfg), set, stair)
	if err != nil {
		t.Fatal(err)
	}
	planned := stair.st.lastSolution.Objective
	if stairRep.TotalCostUSD > planned*1.02+1 {
		t.Errorf("staircase replay $%.2f materially worse than its planned $%.2f",
			stairRep.TotalCostUSD, planned)
	}
	if stairRep.UnservedMWh > 1e-6 {
		t.Errorf("staircase plan left %g MWh unserved", stairRep.UnservedMWh)
	}
}

// TestHorizonLPSolverCeilings pins the horizon LP's solver work with
// deterministic counters: the pivots and basis refactorizations of the
// sparse revised simplex may not grow beyond 10% (+2) of the measured
// counts, and the solve must never fall back to the dense tableau — a
// fallback can take fewer pivots than the sparse path, so a pivot
// ceiling alone would not notice it.
func TestHorizonLPSolverCeilings(t *testing.T) {
	for _, c := range []struct {
		days, T           int
		pivots, refactors int
	}{
		{3, 12, 582, 11},
		{31, 24, 4722, 74},
	} {
		cfg := DefaultConfig()
		cfg.T = c.T
		h, err := NewOfflineHorizon(cfg, testTraces(t, c.days))
		if err != nil {
			t.Fatal(err)
		}
		sol := h.st.lastSolution
		if sol.DenseFallback {
			t.Errorf("days=%d T=%d: horizon LP fell back to the dense tableau", c.days, c.T)
		}
		if limit := int(1.10*float64(c.pivots)) + 2; sol.Iterations > limit {
			t.Errorf("days=%d T=%d: %d pivots, ceiling %d (measured %d)", c.days, c.T, sol.Iterations, limit, c.pivots)
		}
		if limit := int(1.10*float64(c.refactors)) + 2; sol.Refactorizations > limit {
			t.Errorf("days=%d T=%d: %d refactorizations, ceiling %d (measured %d)",
				c.days, c.T, sol.Refactorizations, limit, c.refactors)
		}
	}
}

// TestLookaheadSparseWindowMatchesDense pins the Lookahead routing
// threshold: a window at sparseWindowSlots solves on the revised simplex
// and must replay to essentially the cost of the same window forced
// through the dense tableau. (The window model is identical; only the
// solver path differs, so any gap is alternate-optima clamping noise.)
func TestLookaheadSparseWindowMatchesDense(t *testing.T) {
	if testing.Short() {
		t.Skip("replays two full lookahead runs")
	}
	cfg := DefaultConfig()
	cfg.T = 12
	set := testTraces(t, 2)

	la, err := NewLookahead(cfg, set, sparseWindowSlots)
	if err != nil {
		t.Fatal(err)
	}
	sparseRep, err := sim.Run(simConfig(cfg), set, la)
	if err != nil {
		t.Fatal(err)
	}

	ld, err := NewLookahead(cfg, set, sparseWindowSlots)
	if err != nil {
		t.Fatal(err)
	}
	// Force the dense tableau on the same window width by raising the
	// instance's routing decision: rowBounds keeps SetSparse off without
	// touching the model build.
	ld.fine.rowBounds = true
	denseRep, err := sim.Run(simConfig(cfg), set, ld)
	if err != nil {
		t.Fatal(err)
	}

	if math.Abs(sparseRep.TotalCostUSD-denseRep.TotalCostUSD) >
		0.02*math.Abs(denseRep.TotalCostUSD)+1 {
		t.Errorf("sparse-window lookahead $%.2f deviates from dense $%.2f",
			sparseRep.TotalCostUSD, denseRep.TotalCostUSD)
	}
}

// TestOfflineOptimalStaysOnDenseRowPath pins the alternate-optima
// contract from the golden migrations: OfflineOptimal must keep solving
// on the row-per-bound dense formulation — never bounded, never sparse —
// because the fig6v golden replays that exact pivot sequence's vertex.
// A future migration that flips either flag moves the golden vertex
// silently; this test makes it loud instead.
func TestOfflineOptimalStaysOnDenseRowPath(t *testing.T) {
	cfg := DefaultConfig()
	set := testTraces(t, 2)
	o, err := NewOfflineOptimal(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if !o.st.rowBounds {
		t.Fatal("OfflineOptimal no longer sets rowBounds: the golden-pinned vertex is unprotected")
	}
	if o.st.sparse {
		t.Fatal("OfflineOptimal has the sparse flag set: the golden-pinned vertex is unprotected")
	}
	// problem() re-derives the solve mode from those flags on every call;
	// with rowBounds up, SetSparse must stay off even if sparse were set.
	prob := o.st.problem()
	if prob.Sparse() {
		t.Fatal("row-bound problem reports sparse mode")
	}
}
