package baseline

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/smartdpss/smartdpss/internal/sim"
)

// Impatient is the paper's online strawman: it serves every unit of demand
// as soon as it appears, at whatever the market charges, with no strategic
// deferral, no price-aware storage and no on-site generator dispatch (a
// cost-optimization asset an impatient operator never touches). The UPS
// is used only passively —
// surplus energy is absorbed rather than wasted, and the battery covers
// deficits only when the grid cannot (last resort), which is how an inline
// UPS behaves in the absence of a control policy.
type Impatient struct {
	cfg  Config
	est  sim.TrailingMeans
	snap *estimatorScratch // nil until the first AppendState
}

var _ sim.Controller = (*Impatient)(nil)

// NewImpatient returns the Impatient policy.
func NewImpatient(cfg Config) (*Impatient, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Impatient{cfg: cfg}, nil
}

// Name implements sim.Controller.
func (i *Impatient) Name() string { return "Impatient" }

// CoarseSlots implements sim.Controller.
func (i *Impatient) CoarseSlots() int { return i.cfg.T }

// PlanCoarse buys the observed net demand for every slot of the interval —
// no price consideration, no queue strategy. Like SmartDPSS it estimates
// the interval from the trailing means of the previous one (the snapshot
// at the boundary, often midnight, would systematically under-buy).
func (i *Impatient) PlanCoarse(obs sim.CoarseObs) float64 {
	dds, ddt, ren := obs.DemandDS, obs.DemandDT, obs.Renewable
	if i.est.Ready() {
		dds, ddt, ren = i.est.Means()
	}
	i.est.Reset()
	need := dds + ddt - ren
	perSlot := clamp(need, 0, i.cfg.PgridMWh)
	return perSlot * float64(obs.Slots)
}

// PlanFine serves all delay-sensitive demand plus as much backlog as the
// remaining supply capacity allows, buying real-time power for any
// shortfall and falling back to the battery only when the grid is
// exhausted. Delay-sensitive demand has strict priority: backlog service
// never claims capacity that dds needs.
func (i *Impatient) PlanFine(obs sim.FineObs) sim.Decision {
	i.est.Observe(obs.DemandDS, obs.DemandDT, obs.Renewable)
	base := obs.LongTermDue + obs.Renewable
	grtCapacity := math.Max(0, math.Min(obs.RTHeadroom, i.cfg.SmaxMWh-base))
	capacity := base + grtCapacity + obs.MaxDischarge
	serve := math.Min(math.Min(obs.Backlog, obs.SdtMax),
		math.Max(0, capacity-obs.DemandDS))
	deficit := obs.DemandDS + serve - base

	var dec sim.Decision
	dec.ServeDT = serve
	if deficit > 0 {
		grtCap := math.Max(0, math.Min(obs.RTHeadroom, i.cfg.SmaxMWh-base))
		dec.Grt = math.Min(deficit, grtCap)
		remaining := deficit - dec.Grt
		if remaining > 0 {
			dec.Discharge = math.Min(remaining, obs.MaxDischarge)
		}
		return dec
	}
	// Surplus: absorb into the battery instead of wasting.
	dec.Charge = math.Min(-deficit, obs.MaxCharge)
	return dec
}

// RecordOutcome implements sim.Controller; Impatient keeps no state.
func (i *Impatient) RecordOutcome(sim.Outcome) {}

var _ sim.Snapshotter = (*Impatient)(nil)

// estimatorState is the checkpoint form of Impatient and Lyapunov: their
// configuration (and Lyapunov's V and θ) is pinned by the session
// checkpoint's config hash, so only the trailing-mean estimator survives
// across slots.
type estimatorState struct {
	Est sim.TrailingMeansState `json:"est"`
}

// estimatorScratch is the policies' checkpoint-encoding storage,
// allocated by the first AppendState.
type estimatorScratch struct {
	state estimatorState
	enc   sim.StateEncoder
}

func (s *estimatorScratch) append(dst []byte, est *sim.TrailingMeans) ([]byte, error) {
	s.state.Est = est.State()
	return s.enc.Append(dst, &s.state)
}

// restoreEstimator decodes an estimatorState blob into est, leaving est
// untouched when the blob does not decode.
func restoreEstimator(est *sim.TrailingMeans, data []byte, policy string) error {
	var s estimatorState
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("baseline: decode %s state: %w", policy, err)
	}
	est.Restore(s.Est)
	return nil
}

// AppendState implements sim.Snapshotter.
func (i *Impatient) AppendState(dst []byte) ([]byte, error) {
	if i.snap == nil {
		i.snap = new(estimatorScratch)
	}
	return i.snap.append(dst, &i.est)
}

// RestoreState implements sim.Snapshotter.
func (i *Impatient) RestoreState(data []byte) error {
	return restoreEstimator(&i.est, data, "impatient")
}

func clamp(x, lo, hi float64) float64 { return math.Min(hi, math.Max(lo, x)) }
