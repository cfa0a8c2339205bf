package lp

import "fmt"

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal    Status = iota + 1 // an optimal basic feasible solution was found
	Infeasible                   // the constraints admit no solution
	Unbounded                    // the objective decreases without bound
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution holds the result of Problem.Minimize. Value and Objective are
// meaningful only when Status == Optimal.
type Solution struct {
	// Status classifies the solve outcome.
	Status Status
	// Objective is the optimal objective value (minimization).
	Objective float64
	// Iterations counts simplex pivots across both phases.
	Iterations int
	// Refactorizations counts the basis LU factorizations of a sparse
	// solve (zero on the dense tableau path, which keeps no factors).
	Refactorizations int
	// DenseFallback reports that a sparse problem was abandoned by the
	// revised simplex and re-solved on the dense tableau; the counters
	// above then describe the dense solve alone.
	DenseFallback bool

	values []float64
}

// Value returns the optimal value of the given variable.
func (s *Solution) Value(v VarID) float64 {
	if s == nil || int(v) < 0 || int(v) >= len(s.values) {
		return 0
	}
	return s.values[v]
}

// Values returns a copy of all variable values, indexed by VarID.
func (s *Solution) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}
