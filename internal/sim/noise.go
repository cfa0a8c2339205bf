package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// NoisyController wraps a controller and perturbs the exogenous fields of
// its observations — demand, renewable production and prices — with
// uniform multiplicative errors, reproducing the robustness experiment of
// Sec. VI-C ("uniformly distributed ±50% errors"). Internal state
// (backlog, battery, market headroom) is left exact: the DPSS always knows
// its own queues, it is the world it mis-estimates. The engine executes
// decisions against the true traces, so estimation errors surface as real
// waste, purchases or shed load.
type NoisyController struct {
	inner Controller
	name  string // inner name + "+noise", built once: Name runs on every Snapshot
	rng   *rand.Rand
	frac  float64

	// seed and draws position the RNG for checkpoints: math/rand exposes
	// no state extraction, but the stream is fully determined by the seed
	// and the number of draws consumed, so a restore re-seeds and replays
	// draws discards (see RestoreState).
	seed  int64
	draws uint64

	snap *noisyScratch // checkpoint-encoding storage, nil until first use
}

var _ Controller = (*NoisyController)(nil)

// WithObservationNoise wraps inner so that every observation's exogenous
// fields are scaled by independent factors drawn uniformly from
// [1−frac, 1+frac].
func WithObservationNoise(inner Controller, seed int64, frac float64) (*NoisyController, error) {
	if inner == nil {
		return nil, errors.New("sim: nil inner controller")
	}
	if frac < 0 || frac >= 1 {
		return nil, errors.New("sim: noise fraction must be in [0, 1)")
	}
	return &NoisyController{
		inner: inner,
		name:  inner.Name() + "+noise",
		rng:   rand.New(rand.NewSource(seed)),
		frac:  frac,
		seed:  seed,
	}, nil
}

// Name implements Controller.
func (n *NoisyController) Name() string { return n.name }

// CoarseSlots implements Controller.
func (n *NoisyController) CoarseSlots() int { return n.inner.CoarseSlots() }

// PlanCoarse perturbs the exogenous coarse observations and delegates.
func (n *NoisyController) PlanCoarse(obs CoarseObs) float64 {
	obs.PriceLT *= n.factor()
	obs.DemandDS *= n.factor()
	obs.DemandDT *= n.factor()
	obs.Renewable *= n.factor()
	// The fuel-price multiplier is a market signal like the grid prices
	// and gets the same error treatment — but only when a fuel market is
	// configured (scale ≠ 1), so fuel-trace-free runs consume exactly
	// the pre-fuel-trace noise stream.
	if obs.FuelScale != 1 && obs.FuelScale != 0 {
		obs.FuelScale *= n.factor()
	}
	return n.inner.PlanCoarse(obs)
}

// PlanFine perturbs the exogenous fine observations, delegates, and clamps
// the inner decision back to the true admissible set (the inner controller
// sized its decision against mis-estimated inputs; physical limits still
// come from the truth).
func (n *NoisyController) PlanFine(obs FineObs) Decision {
	noisy := obs
	noisy.PriceRT *= n.factor()
	noisy.DemandDS *= n.factor()
	noisy.DemandDT *= n.factor()
	noisy.Renewable *= n.factor()
	if noisy.FuelScale != 1 && noisy.FuelScale != 0 {
		noisy.FuelScale *= n.factor() // see PlanCoarse: fuel market only
	}
	dec := n.inner.PlanFine(noisy)

	dec.Grt = clamp(dec.Grt, 0, math.Max(0,
		math.Min(obs.RTHeadroom, obs.Smax-obs.LongTermDue-obs.Renewable)))
	dec.ServeDT = clamp(dec.ServeDT, 0, math.Min(obs.Backlog, obs.SdtMax))
	dec.Charge = clamp(dec.Charge, 0, obs.MaxCharge)
	dec.Discharge = clamp(dec.Discharge, 0, obs.MaxDischarge)
	dec.Generate = clamp(dec.Generate, 0, obs.GenRequest)
	for u := range dec.GenerateUnits {
		limit := 0.0
		if u < len(obs.GenUnits) {
			limit = obs.GenUnits[u].RequestMax
		}
		dec.GenerateUnits[u] = clamp(dec.GenerateUnits[u], 0, math.Max(0, limit))
	}
	return dec
}

// RecordOutcome passes outcomes through unperturbed: queue updates use the
// executed truth (Algorithm 1 step 3 reads the actual queues).
func (n *NoisyController) RecordOutcome(out Outcome) { n.inner.RecordOutcome(out) }

func (n *NoisyController) factor() float64 {
	n.draws++
	return 1 + n.frac*(2*n.rng.Float64()-1)
}

var _ Snapshotter = (*NoisyController)(nil)

// noisyState is the wrapper's checkpoint form: the RNG position (seed +
// draws consumed) and the inner controller's own blob. The noise
// fraction is configuration and stays outside.
type noisyState struct {
	Seed  int64           `json:"seed"`
	Draws uint64          `json:"draws"`
	Inner json.RawMessage `json:"inner,omitempty"`
}

// maxNoiseDraws bounds the draw count a restore replays. A slot
// consumes at most ten draws (five at a coarse boundary, five per fine
// slot), so the bound covers 6.7 million slots — centuries of hourly or
// quarter-hourly operation — while keeping the replay of a corrupt count
// under a second instead of unbounded.
const maxNoiseDraws = 1 << 26

// noisyScratch is the wrapper's checkpoint-encoding storage, allocated
// by the first AppendState: the state image, the inner controller's
// blob it points into, and the encoder.
type noisyScratch struct {
	state noisyState
	inner []byte
	enc   StateEncoder
}

// AppendState implements Snapshotter. The wrapped controller must
// itself be a Snapshotter, or ErrSnapshotUnsupported is returned.
func (n *NoisyController) AppendState(dst []byte) ([]byte, error) {
	snap, ok := n.inner.(Snapshotter)
	if !ok {
		return dst, fmt.Errorf("%w: wrapped controller %q", ErrSnapshotUnsupported, n.inner.Name())
	}
	if n.snap == nil {
		n.snap = new(noisyScratch)
	}
	inner, err := snap.AppendState(n.snap.inner[:0])
	if err != nil {
		return dst, err
	}
	n.snap.inner = inner
	n.snap.state = noisyState{Seed: n.seed, Draws: n.draws, Inner: inner}
	return n.snap.enc.Append(dst, &n.snap.state)
}

// RestoreState implements Snapshotter. The RNG is repositioned by
// re-seeding and discarding the recorded number of draws — the uniform
// stream then continues exactly where the snapshot left it. The inner
// controller restores first (all-or-nothing by the Snapshotter
// contract), so a rejected blob leaves the wrapper untouched too.
func (n *NoisyController) RestoreState(data []byte) error {
	snap, ok := n.inner.(Snapshotter)
	if !ok {
		return fmt.Errorf("%w: wrapped controller %q", ErrSnapshotUnsupported, n.inner.Name())
	}
	var s noisyState
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("sim: decode noise state: %w", err)
	}
	if s.Seed != n.seed {
		return fmt.Errorf("%w: noise seed %d, session has %d", ErrSnapshotMismatch, s.Seed, n.seed)
	}
	if s.Draws > maxNoiseDraws {
		return fmt.Errorf("sim: noise state replays %d draws, more than %d", s.Draws, uint64(maxNoiseDraws))
	}
	if err := snap.RestoreState(s.Inner); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	for i := uint64(0); i < s.Draws; i++ {
		rng.Float64()
	}
	n.rng = rng
	n.draws = s.Draws
	return nil
}
