package lp

import (
	"errors"
	"fmt"
	"math"

	"github.com/smartdpss/smartdpss/internal/scratch"
)

// Relation is the sense of a linear constraint.
type Relation int

// Constraint relations.
const (
	LE Relation = iota + 1 // aᵀx ≤ b
	GE                     // aᵀx ≥ b
	EQ                     // aᵀx = b
)

// String returns the mathematical symbol for the relation.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// VarID identifies a variable within a Problem.
type VarID int

// Term is a single coefficient–variable product in a constraint row.
type Term struct {
	Var   VarID
	Coeff float64
}

// variable is the internal record of one decision variable.
type variable struct {
	name  string
	lower float64
	upper float64
	cost  float64
}

// constraint is the internal record of one constraint row. Its terms
// are Problem.terms[lo:hi].
type constraint struct {
	lo, hi int
	rel    Relation
	rhs    float64
}

// Problem is a mutable linear program under construction. The zero value is
// not usable; create instances with NewProblem.
type Problem struct {
	vars    []variable
	cons    []constraint
	terms   []Term // every row's terms, back to back in row order
	maxIter int
	bounded bool
	sparse  bool
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem {
	return &Problem{}
}

// Reset empties the problem for rebuilding in place, keeping the variable,
// constraint and term storage so a problem rebuilt to a similar shape
// allocates nothing. The iteration budget and bound mode are preserved.
func (p *Problem) Reset() {
	p.vars = p.vars[:0]
	p.cons = p.cons[:0]
	p.terms = p.terms[:0]
}

// SetMaxIterations overrides the default simplex iteration budget
// (0 restores the default, which scales with problem size).
func (p *Problem) SetMaxIterations(n int) { p.maxIter = n }

// SetBounded selects the bounded-variable simplex: a finite upper bound
// becomes a column bound handled natively by the pivot loop (bound flips,
// nonbasic-at-upper-bound columns) instead of being lowered to one
// explicit ≤ row per variable. The tableau shrinks by one row per
// upper-bounded variable — ~40% on the box-constrained interval LPs this
// repository solves. Optimal objectives and statuses are identical to the
// row formulation; on degenerate problems the reported solution may be a
// different (equally optimal) vertex, which is why the row formulation
// remains the default wherever byte-pinned outputs replay the historical
// pivot sequence. The mode survives Reset. See the package documentation
// for the full solver contract.
func (p *Problem) SetBounded(on bool) { p.bounded = on }

// SetSparse selects the sparse revised simplex: the constraint matrix is
// kept in compressed sparse form, the basis is held as an LU
// factorization updated by an eta file, and each pivot touches only the
// nonzeros of the columns involved — on the staircase-structured horizon
// LPs this repository solves, cost per pivot drops from O(rows·cols) to
// roughly the basis fill-in. Optimal status and objective are identical
// to the dense tableau (the property/fuzz parity harness in this package
// gates that equivalence to 1e-9); the reported vertex may be a
// different, equally optimal one on degenerate problems, so golden-pinned
// paths must stay on the dense solver. The mode survives Reset and
// composes with SetBounded. On numerical trouble the solver transparently
// re-solves the problem with the dense tableau, so results never depend
// on the sparse path succeeding. See the package documentation for the
// full contract.
func (p *Problem) SetSparse(on bool) { p.sparse = on }

// Sparse reports whether the sparse revised simplex is selected —
// observability for callers pinning which solver path a problem rides.
func (p *Problem) Sparse() bool { return p.sparse }

// AddVariable adds a decision variable with bounds [lower, upper] and the
// given objective coefficient, returning its identifier. lower may be
// math.Inf(-1) and upper may be math.Inf(1). The name appears only in
// error messages; an empty name prints as x<id>.
func (p *Problem) AddVariable(name string, lower, upper, cost float64) VarID {
	p.vars = append(scratch.Grow(p.vars, 1), variable{name: name, lower: lower, upper: upper, cost: cost})
	return VarID(len(p.vars) - 1)
}

// AddConstraint adds the row  Σ terms  rel  rhs.
// Terms referencing the same variable are summed. The terms slice is
// copied into the problem's term arena (reused across Reset cycles), so
// callers may reuse their build buffer.
func (p *Problem) AddConstraint(rel Relation, rhs float64, terms ...Term) {
	lo := len(p.terms)
	p.terms = append(scratch.Grow(p.terms, len(terms)), terms...)
	p.cons = append(scratch.Grow(p.cons, 1), constraint{lo: lo, hi: len(p.terms), rel: rel, rhs: rhs})
}

// rowTerms returns the terms of constraint c, borrowed from the arena.
func (p *Problem) rowTerms(c constraint) []Term { return p.terms[c.lo:c.hi] }

// NumVariables reports the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.vars) }

// NumConstraints reports the number of constraint rows added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// Validation errors returned by Minimize.
var (
	ErrNoVariables  = errors.New("lp: problem has no variables")
	ErrBadBounds    = errors.New("lp: variable lower bound exceeds upper bound")
	ErrBadTerm      = errors.New("lp: constraint references unknown variable")
	ErrNotFinite    = errors.New("lp: non-finite coefficient or right-hand side")
	ErrIterLimit    = errors.New("lp: simplex iteration limit exceeded")
	ErrInfeasible   = errors.New("lp: problem is infeasible")
	ErrUnbounded    = errors.New("lp: problem is unbounded")
	errNumericalBug = errors.New("lp: internal numerical inconsistency")
)

// validate checks the problem for structural errors before solving.
func (p *Problem) validate() error {
	if len(p.vars) == 0 {
		return ErrNoVariables
	}
	for i, v := range p.vars {
		if v.lower > v.upper {
			return fmt.Errorf("%w: %s has [%g, %g]", ErrBadBounds, p.varName(VarID(i)), v.lower, v.upper)
		}
		if math.IsNaN(v.lower) || math.IsNaN(v.upper) || !isFinite(v.cost) {
			return fmt.Errorf("%w: variable %s", ErrNotFinite, p.varName(VarID(i)))
		}
	}
	for i, c := range p.cons {
		if !isFinite(c.rhs) {
			return fmt.Errorf("%w: constraint %d rhs", ErrNotFinite, i)
		}
		for _, t := range p.rowTerms(c) {
			if int(t.Var) < 0 || int(t.Var) >= len(p.vars) {
				return fmt.Errorf("%w: constraint %d references %d", ErrBadTerm, i, t.Var)
			}
			if !isFinite(t.Coeff) {
				return fmt.Errorf("%w: constraint %d coefficient", ErrNotFinite, i)
			}
		}
	}
	return nil
}

func (p *Problem) varName(id VarID) string {
	v := p.vars[id]
	if v.name == "" {
		return fmt.Sprintf("x%d", int(id))
	}
	return v.name
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
