package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/smartdpss/smartdpss/internal/battery"
	"github.com/smartdpss/smartdpss/internal/generator"
	"github.com/smartdpss/smartdpss/internal/market"
	"github.com/smartdpss/smartdpss/internal/queue"
)

// CheckpointVersion is the on-disk checkpoint format version. Restore
// rejects any other value with ErrSnapshotMismatch: a format change gets
// a new version, never a silent reinterpretation. Version 2 keeps
// version 1's layout; it was bumped because the engine's options
// fingerprint lost a field, which changed every configHash.
const CheckpointVersion = 2

// Checkpoint is the JSON image of a session between two slots: every
// mutable component state plus the controller's own blob. Configuration
// is NOT stored — it is pinned by ConfigHash, a digest of the session's
// Config, controller name, horizon, slot length and the caller's
// fingerprint. Restore therefore requires an identically configured
// session and fails with ErrSnapshotMismatch otherwise, instead of
// silently resuming one run's state under another run's physics.
//
// All float64 fields round-trip exactly through Go's JSON encoding
// (shortest-representation formatting is read back to the identical
// bits), so a restored session continues bit-for-bit.
type Checkpoint struct {
	Version    int    `json:"version"`
	ConfigHash string `json:"configHash"`
	Controller string `json:"controller"`

	Slot        int `json:"slot"`
	Horizon     int `json:"horizon"`
	SlotMinutes int `json:"slotMinutes"`

	Battery battery.State      `json:"battery"`
	Market  market.State       `json:"market"`
	Backlog queue.BacklogState `json:"backlog"`
	Fleet   []generator.State  `json:"fleet,omitempty"`
	Report  ReportState        `json:"report"`

	// ControllerState is the controller's Snapshotter blob
	// (policy-specific: virtual queues, trailing means, RNG position).
	ControllerState json.RawMessage `json:"controllerState,omitempty"`
}

// configHash digests everything that must match between the session that
// snapshots and the session that restores.
func configHash(cfg Config, controller string, horizon, slotMinutes int, fingerprint string) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	// Config contains only exported scalar/struct/slice fields, so the
	// encode cannot fail; the encoder writes a trailing newline, which is
	// as good a field separator as any.
	_ = enc.Encode(struct {
		Fingerprint string
		Config      Config
		Controller  string
		Horizon     int
		SlotMinutes int
	}{fingerprint, cfg, controller, horizon, slotMinutes})
	return hex.EncodeToString(h.Sum(nil))
}

// ConfigHash returns the session's configuration digest (the value a
// matching checkpoint carries). The digest is computed on first use and
// cached, so pure batch runs that never checkpoint skip the hashing —
// that keeps the hot path's allocation budget unchanged.
func (s *Session) ConfigHash() string {
	if s.hash == "" {
		fp := ""
		if s.fingerprint != nil {
			fp = s.fingerprint()
		}
		s.hash = configHash(s.cfg, s.ctrl.Name(), s.horizon, s.slotMinutes, fp)
	}
	return s.hash
}

// snapshotScratch is a session's checkpoint-encoding storage: the
// reused Checkpoint image, the controller blob and the component slices
// it points into, and one JSON encoder. Snapshot allocates it on first
// use — the same lazy pattern as ConfigHash — so batch runs that never
// checkpoint never pay for it.
type snapshotScratch struct {
	cp      Checkpoint
	ctrl    []byte
	cohorts []queue.CohortState
	fleet   []generator.State
	enc     StateEncoder
}

// StateEncoder appends JSON encodings to caller-supplied slices through
// one reused json.Encoder and buffer, so a steady-state encode allocates
// nothing. Its zero value is ready to use; it is not safe for concurrent
// use. Session checkpoints and the Snapshotter implementations share it.
type StateEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// Append appends the JSON encoding of v to dst — exactly the bytes
// json.Marshal(v) produces — and returns the extended slice (dst
// unchanged on error). Pass v as a pointer: a pointer converts to an
// interface without allocating, where a struct value is boxed.
func (e *StateEncoder) Append(dst []byte, v any) ([]byte, error) {
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.buf)
	}
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		return dst, err
	}
	b := e.buf.Bytes()
	return append(dst, b[:len(b)-1]...), nil // Encode ends every value with '\n'
}

// Snapshot captures the full simulation state as a self-describing JSON
// checkpoint in a freshly allocated slice the caller owns. It is only
// valid between slots: with a Step pending Commit it fails with
// ErrPendingDecision, and after Finish with ErrSessionFinished. The
// controller must implement Snapshotter (ErrSnapshotUnsupported
// otherwise).
//
// Snapshot is AppendSnapshot(nil): after the first call, which sets up
// the session's encoding scratch and the configuration digest, it makes
// exactly one heap allocation — the returned slice.
func (s *Session) Snapshot() ([]byte, error) { return s.AppendSnapshot(nil) }

// AppendSnapshot appends the checkpoint Snapshot returns to dst and
// returns the extended slice (dst unchanged on error). The checkpoint is
// assembled and encoded in session-owned storage, so appending into a
// dst with enough capacity allocates nothing at steady state — the
// reuse a periodically checkpointing daemon wants. The bytes are
// identical to the json.Marshal encoding of the Checkpoint (the golden
// checkpoints in testdata/checkpoint pin them).
func (s *Session) AppendSnapshot(dst []byte) ([]byte, error) {
	if s.finished {
		return dst, ErrSessionFinished
	}
	if s.pending {
		return dst, ErrPendingDecision
	}
	snap, ok := s.ctrl.(Snapshotter)
	if !ok {
		return dst, fmt.Errorf("%w: controller %q", ErrSnapshotUnsupported, s.ctrl.Name())
	}
	sc := s.snap
	if sc == nil {
		sc = new(snapshotScratch)
		s.snap = sc
	}
	ctrl, err := snap.AppendState(sc.ctrl[:0])
	if err != nil {
		return dst, fmt.Errorf("sim: controller snapshot: %w", err)
	}
	sc.ctrl = ctrl
	sc.cp = Checkpoint{
		Version:         CheckpointVersion,
		ConfigHash:      s.ConfigHash(),
		Controller:      s.ctrl.Name(),
		Slot:            s.slot,
		Horizon:         s.horizon,
		SlotMinutes:     s.slotMinutes,
		Battery:         s.batt.State(),
		Market:          s.acct.State(),
		Backlog:         s.backlog.AppendState(sc.cohorts[:0]),
		Fleet:           s.fleet.AppendState(sc.fleet[:0]),
		Report:          s.rep.state(),
		ControllerState: ctrl,
	}
	sc.cohorts, sc.fleet = sc.cp.Backlog.Cohorts, sc.cp.Fleet
	return sc.enc.Append(dst, &sc.cp)
}

// Restore reinstates a checkpoint onto this session, which must be
// configured identically to the one that produced it (same Config,
// controller, horizon, slot length and fingerprint — enforced through
// the embedded hash). The session may be fresh or mid-run; either way
// its entire state is overwritten and execution resumes bit-for-bit at
// the checkpoint's slot.
//
// Restore is all-or-nothing. A checkpoint from another configuration or
// format version fails with ErrSnapshotMismatch; one that does not
// decode, or whose component states fail validation (a battery level
// out of bounds, a malformed fleet unit, a corrupt controller blob),
// fails with ErrCorruptCheckpoint. Either way the session is left
// exactly as it was before the call.
func (s *Session) Restore(data []byte) error {
	if s.pending {
		return ErrPendingDecision
	}
	snap, ok := s.ctrl.(Snapshotter)
	if !ok {
		return fmt.Errorf("%w: controller %q", ErrSnapshotUnsupported, s.ctrl.Name())
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("%w: decode: %w", ErrCorruptCheckpoint, err)
	}
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("%w: checkpoint version %d, want %d",
			ErrSnapshotMismatch, cp.Version, CheckpointVersion)
	}
	if cp.ConfigHash != s.ConfigHash() {
		return fmt.Errorf("%w: config hash %.12s, session has %.12s",
			ErrSnapshotMismatch, cp.ConfigHash, s.ConfigHash())
	}
	if cp.Controller != s.ctrl.Name() {
		return fmt.Errorf("%w: checkpoint controller %q, session has %q",
			ErrSnapshotMismatch, cp.Controller, s.ctrl.Name())
	}
	if cp.Horizon != s.horizon || cp.SlotMinutes != s.slotMinutes {
		return fmt.Errorf("%w: checkpoint horizon %d × %d min, session has %d × %d min",
			ErrSnapshotMismatch, cp.Horizon, cp.SlotMinutes, s.horizon, s.slotMinutes)
	}
	if cp.Slot < 0 || cp.Slot > cp.Horizon {
		return fmt.Errorf("%w: checkpoint slot %d outside [0, %d]",
			ErrSnapshotMismatch, cp.Slot, cp.Horizon)
	}

	// Rebuild every component off to the side; the session's own state
	// is touched only once all of them — and the controller — accepted
	// their part of the checkpoint.
	c, err := newComponents(s.cfg, s.ctrl.Name(), s.horizon)
	if err != nil {
		return err
	}
	if err := c.batt.Restore(cp.Battery); err != nil {
		return fmt.Errorf("%w: battery: %w", ErrCorruptCheckpoint, err)
	}
	if err := c.acct.Restore(cp.Market); err != nil {
		return fmt.Errorf("%w: market: %w", ErrCorruptCheckpoint, err)
	}
	if err := c.fleet.Restore(cp.Fleet); err != nil {
		return fmt.Errorf("%w: fleet: %w", ErrCorruptCheckpoint, err)
	}
	if err := c.backlog.Restore(cp.Backlog); err != nil {
		return fmt.Errorf("%w: backlog: %w", ErrCorruptCheckpoint, err)
	}
	c.rep.restore(cp.Report, s.cfg.KeepSeries)
	// The controller goes last: RestoreState is all-or-nothing by the
	// Snapshotter contract, and nothing after it can fail.
	if err := snap.RestoreState(cp.ControllerState); err != nil {
		return fmt.Errorf("%w: controller: %w", ErrCorruptCheckpoint, err)
	}
	s.components = c
	s.slot = cp.Slot
	s.finished = false
	return nil
}
