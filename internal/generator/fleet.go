package generator

import (
	"fmt"
	"sort"
)

// Fleet is an ordered collection of heterogeneous on-site generation
// units dispatched together: the multi-unit generalization of the single
// self-generation source of arXiv:1303.6775, stepping toward the
// unit-commitment formulations of the power-systems literature. Units
// keep their individual physics (capacity, minimum stable load, ramp,
// fuel curve, startup cost and lag, CO₂ intensity); the fleet adds
// merit-order allocation across them and aggregate accounting.
//
// A Fleet with no units is inert: every method is a no-op returning
// zeros, so fleet-free configurations reproduce fleet-free results
// exactly (the empty-fleet byte-identity invariant).
type Fleet struct {
	units []*Generator
	merit []int // unit indices in ascending base-marginal order

	// Per-slot buffers reused across calls (see Observe, Dispatch and
	// SplitTotal): the engine consumes each slot's views before the next
	// slot begins, so one buffer per role suffices for a whole run.
	obs  []UnitObs
	outs []Outcome
	reqs []float64
}

// MeritOrder returns the unit indices in ascending base-marginal-price
// order; ties resolve by unit index so the order (and therefore every
// planning and dispatch split that follows it) is deterministic. The
// controller and the fleet share this single definition so plan and
// execution can never order units differently.
func MeritOrder(specs []Params) []int {
	merit := make([]int, len(specs))
	for i := range merit {
		merit[i] = i
	}
	sort.SliceStable(merit, func(a, b int) bool {
		return specs[merit[a]].MarginalAt(0) < specs[merit[b]].MarginalAt(0)
	})
	return merit
}

// NewFleet builds a cold fleet from the unit specifications, preserving
// their order (unit i of the fleet is specs[i]).
func NewFleet(specs []Params) (*Fleet, error) {
	f := &Fleet{units: make([]*Generator, len(specs))}
	for i, p := range specs {
		g, err := New(p)
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
		f.units[i] = g
	}
	f.merit = MeritOrder(specs)
	return f, nil
}

// Size returns the number of units.
func (f *Fleet) Size() int { return len(f.units) }

// Enabled reports whether the fleet has at least one enabled unit.
func (f *Fleet) Enabled() bool {
	for _, u := range f.units {
		if u.Params().Enabled() {
			return true
		}
	}
	return false
}

// Unit returns unit i (fleet order, not merit order).
func (f *Fleet) Unit(i int) *Generator { return f.units[i] }

// MeritOrder returns the fleet's unit indices in ascending
// base-marginal-price order (ties by index).
func (f *Fleet) MeritOrder() []int { return f.merit }

// Tick advances every unit's synchronization countdown (one call per
// fine slot, before the controller observes the fleet).
func (f *Fleet) Tick() {
	for _, u := range f.units {
		u.Tick()
	}
}

// UnitObs is one unit's dispatch state as a controller observes it.
type UnitObs struct {
	// Running reports a synchronized, producing-capable unit.
	Running bool
	// Starting reports an in-progress start (lag not yet elapsed).
	Starting bool
	// MinMWh and MaxMWh are the deliverable output band this slot
	// ((0, 0) when the unit cannot produce now).
	MinMWh float64
	// MaxMWh is the band's upper end.
	MaxMWh float64
	// RequestMax is the largest meaningful dispatch request (exceeds
	// MaxMWh only for an off unit behind a startup lag, where a positive
	// request signals a cold start delivering nothing yet).
	RequestMax float64
	// MarginalUSDPerMWh is the unit's base marginal fuel price at zero
	// output, before any slot fuel-price scaling.
	MarginalUSDPerMWh float64
}

// Observe returns every unit's dispatch state in fleet order (nil for an
// empty fleet). The slice is fleet-owned and valid until the next
// Observe call.
func (f *Fleet) Observe() []UnitObs {
	if len(f.units) == 0 {
		return nil
	}
	if cap(f.obs) < len(f.units) {
		f.obs = make([]UnitObs, len(f.units))
	}
	obs := f.obs[:len(f.units)]
	for i, u := range f.units {
		min, max := u.Window()
		obs[i] = UnitObs{
			Running:           u.Running(),
			Starting:          u.Starting(),
			MinMWh:            min,
			MaxMWh:            max,
			RequestMax:        u.RequestMax(),
			MarginalUSDPerMWh: u.Params().MarginalAt(0),
		}
	}
	return obs
}

// Dispatch executes one slot: requests[i] goes to unit i (missing
// entries are zero, so a short — or nil — slice shuts the tail of the
// fleet down), with the slot's fuel-price multiplier applied to every
// unit's fuel bill. Outcomes come back in fleet order, in a fleet-owned
// slice valid until the next Dispatch call.
func (f *Fleet) Dispatch(requests []float64, fuelScale float64) []Outcome {
	if len(f.units) == 0 {
		return nil
	}
	if cap(f.outs) < len(f.units) {
		f.outs = make([]Outcome, len(f.units))
	}
	outs := f.outs[:len(f.units)]
	for i, u := range f.units {
		req := 0.0
		if i < len(requests) {
			req = requests[i]
		}
		outs[i] = u.DispatchAt(req, fuelScale)
	}
	return outs
}

// SplitTotal allocates an aggregate dispatch request across the fleet in
// merit order (cheapest base marginal first): each unit receives as much
// of the remainder as it can meaningfully accept (its RequestMax), and a
// remainder too small to hold a unit's minimum stable load skips that
// unit. For a one-unit fleet the split is the identity, which keeps the
// legacy scalar Decision.Generate path byte-identical. The returned
// slice is fleet-owned and valid until the next SplitTotal call.
func (f *Fleet) SplitTotal(total float64) []float64 {
	if len(f.units) == 0 {
		return nil
	}
	if cap(f.reqs) < len(f.units) {
		f.reqs = make([]float64, len(f.units))
	}
	reqs := f.reqs[:len(f.units)]
	for i := range reqs {
		reqs[i] = 0
	}
	if len(f.units) == 1 {
		reqs[0] = total
		return reqs
	}
	remaining := total
	for _, i := range f.merit {
		if remaining <= tol {
			break
		}
		u := f.units[i]
		take := remaining
		if max := u.RequestMax(); take > max {
			take = max
		}
		if take < u.Params().MinLoadMWh-tol {
			continue
		}
		reqs[i] = take
		remaining -= take
	}
	return reqs
}

// AppendState captures every unit's mutable state for a checkpoint,
// appending them to dst in fleet order (nothing for an empty fleet).
// Passing a reused slice truncated to zero length keeps a periodic
// checkpoint allocation-free.
func (f *Fleet) AppendState(dst []State) []State {
	for _, u := range f.units {
		dst = append(dst, u.State())
	}
	return dst
}

// Restore overwrites every unit's mutable state from a checkpoint. The
// state count must match the fleet size (the checkpoint's config hash
// already pins the unit specs, this is a second line of defense).
func (f *Fleet) Restore(states []State) error {
	if len(states) != len(f.units) {
		return fmt.Errorf("generator: checkpoint has %d unit states, fleet has %d units",
			len(states), len(f.units))
	}
	for i, s := range states {
		if err := f.units[i].Restore(s); err != nil {
			return fmt.Errorf("unit %d: %w", i, err)
		}
	}
	return nil
}

// FleetTotals aggregates lifetime accounting across the units.
type FleetTotals struct {
	EnergyMWh  float64
	FuelUSD    float64
	StartupUSD float64
	CO2Kg      float64
	Starts     int
	OpSlots    int
}

// Totals returns the fleet-wide lifetime accounting.
func (f *Fleet) Totals() FleetTotals {
	var t FleetTotals
	for _, u := range f.units {
		t.EnergyMWh += u.EnergyTotal()
		t.FuelUSD += u.FuelCostTotal()
		t.StartupUSD += u.StartupCostTotal()
		t.CO2Kg += u.CO2Total()
		t.Starts += u.Starts()
		t.OpSlots += u.OpSlots()
	}
	return t
}
