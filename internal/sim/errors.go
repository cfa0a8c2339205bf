package sim

import (
	"errors"
	"fmt"
)

// Sentinel errors of the session API. Callers branch on them with
// errors.Is; every error a Session returns wraps exactly one of these
// (or comes from a component package, whose sentinels — battery.ErrBounds,
// market.ErrGridCap, … — pass through unwrapped).
var (
	// ErrSessionFinished reports a Step/Commit/Snapshot on a session
	// whose Finish has already run.
	ErrSessionFinished = errors.New("sim: session already finished")

	// ErrPendingDecision reports a Step, Snapshot or Finish while a
	// planned decision awaits Commit: mid-slot state (fleet ticked,
	// trailing means observed) is not a consistent checkpoint boundary.
	ErrPendingDecision = errors.New("sim: planned decision pending Commit")

	// ErrNoPendingDecision reports a Commit without a preceding Step.
	ErrNoPendingDecision = errors.New("sim: no planned decision to commit")

	// ErrHorizonExhausted reports a Step past the session's last slot.
	ErrHorizonExhausted = errors.New("sim: horizon exhausted")

	// ErrSnapshotMismatch reports a Restore from a checkpoint taken under
	// a different configuration, controller or checkpoint-format version.
	// Resuming silently would graft one run's state onto another run's
	// physics, so the mismatch is fatal.
	ErrSnapshotMismatch = errors.New("sim: checkpoint does not match session configuration")

	// ErrCorruptCheckpoint reports a Restore from bytes that are not a
	// well-formed checkpoint: they do not decode, or a component state
	// fails validation (a battery level outside its bounds, a fleet of
	// the wrong size, a controller blob that does not decode). The
	// underlying decode or validation error stays reachable through
	// errors.Is/As, and the session is left untouched.
	ErrCorruptCheckpoint = errors.New("sim: corrupt checkpoint")

	// ErrSnapshotUnsupported reports a Snapshot/Restore on a session
	// whose controller does not implement Snapshotter (the offline
	// benchmarks, which precompute plans from the full trace).
	ErrSnapshotUnsupported = errors.New("sim: controller does not support snapshots")
)

// ValidationError reports one invalid field of a session or option
// struct, keeping the field name machine-readable. It is matched with
// errors.As; engine.ErrInvalidOptions wraps these on the public surface.
type ValidationError struct {
	// Field names the offending field (Go field name).
	Field string
	// Reason says what is wrong with it.
	Reason string
}

// Error implements error.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("sim: invalid %s: %s", e.Field, e.Reason)
}
