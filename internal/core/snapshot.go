package core

import (
	"encoding/json"
	"fmt"

	"github.com/smartdpss/smartdpss/internal/sim"
)

// controllerState is the SmartDPSS controller's mutable state in
// checkpoint form: the virtual-queue freeze Θ(t), the delay queue Y, the
// trailing-mean estimators (demand/renewable and real-time price), the
// frozen demand envelope and the LP fallback counter. The slot-loop
// scratch buffers are deliberately absent — they carry no information
// across slots. Configuration (Params) is pinned by the session
// checkpoint's config hash.
type controllerState struct {
	QT float64 `json:"qT"`
	YT float64 `json:"yT"`
	XT float64 `json:"xT"`

	DelayY float64                `json:"delayY"`
	Est    sim.TrailingMeansState `json:"est"`

	PrtSum   float64 `json:"prtSum"`
	PrtN     int     `json:"prtN"`
	PrtMean  float64 `json:"prtMean"`
	PrtReady bool    `json:"prtReady"`

	EnvDDS float64 `json:"envDDS"`
	EnvDDT float64 `json:"envDDT"`
	EnvRen float64 `json:"envRen"`

	LPFailures int `json:"lpFailures"`
}

var _ sim.Snapshotter = (*Controller)(nil)

// stateScratch is the controller's checkpoint-encoding storage,
// allocated by the first AppendState.
type stateScratch struct {
	state controllerState
	enc   sim.StateEncoder
}

// AppendState implements sim.Snapshotter: it captures everything the
// controller carries across fine slots, so a restored controller plans
// bit-identically to one that never stopped.
func (c *Controller) AppendState(dst []byte) ([]byte, error) {
	if c.snap == nil {
		c.snap = new(stateScratch)
	}
	c.snap.state = controllerState{
		QT:         c.qT,
		YT:         c.yT,
		XT:         c.xT,
		DelayY:     c.delay.Value(),
		Est:        c.est.State(),
		PrtSum:     c.prtSum,
		PrtN:       c.prtN,
		PrtMean:    c.prtMean,
		PrtReady:   c.prtReady,
		EnvDDS:     c.envDDS,
		EnvDDT:     c.envDDT,
		EnvRen:     c.envRen,
		LPFailures: c.lpFailures,
	}
	return c.snap.enc.Append(dst, &c.snap.state)
}

// RestoreState implements sim.Snapshotter. The blob is decoded and
// checked in full before any field is assigned, so a rejected one leaves
// the controller untouched.
func (c *Controller) RestoreState(data []byte) error {
	var s controllerState
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("core: decode controller state: %w", err)
	}
	// The frozen backlog Q and delay queue Y are never negative in a run.
	// P5 relies on it: with Q+Y below −V·(waste + emergency cost) its
	// two uncapped legs, emergency supply and waste, would form a
	// profitable pair of infinite room and the solve would never end.
	if s.QT < 0 || s.YT < 0 {
		return fmt.Errorf("core: controller state has negative queues Q=%g Y=%g", s.QT, s.YT)
	}
	c.qT, c.yT, c.xT = s.QT, s.YT, s.XT
	c.delay.Restore(s.DelayY)
	c.est.Restore(s.Est)
	c.prtSum, c.prtN = s.PrtSum, s.PrtN
	c.prtMean, c.prtReady = s.PrtMean, s.PrtReady
	c.envDDS, c.envDDT, c.envRen = s.EnvDDS, s.EnvDDT, s.EnvRen
	c.lpFailures = s.LPFailures
	return nil
}
