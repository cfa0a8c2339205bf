package lp

import (
	"math"
	"math/rand"
	"testing"
)

// buildTransport fills p with a small transport-like problem whose shape
// is constant but whose costs and right-hand sides vary with the
// parameters.
func buildTransport(p *Problem, demand, cap1, cap2, c1, c2 float64) (x1, x2, short VarID) {
	x1 = p.AddVariable("x1", 0, cap1, c1)
	x2 = p.AddVariable("x2", 0, cap2, c2)
	short = p.AddVariable("short", 0, math.Inf(1), 1e4)
	p.AddConstraint(EQ, demand,
		Term{Var: x1, Coeff: 1}, Term{Var: x2, Coeff: 1}, Term{Var: short, Coeff: 1})
	p.AddConstraint(LE, cap1+cap2,
		Term{Var: x1, Coeff: 1}, Term{Var: x2, Coeff: 2})
	return x1, x2, short
}

// TestSolverSolveMatchesMinimize pins the reused Solver to a fresh
// Problem.Minimize across a spread of random problems, each solved in row
// mode and in bounded mode (SetBounded) through the one Solver: same
// status, objective, pivot count and values, bit for bit. The sequence
// changes shape between solves and passes through infeasible and
// unbounded instances, so no state may leak from one solve to the next.
func TestSolverSolveMatchesMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSolver()
	seen := map[Status]int{}
	for it := 0; it < 200; it++ {
		p := NewProblem()
		nv := 1 + rng.Intn(6)
		vars := make([]VarID, nv)
		for i := range vars {
			lo := rng.Float64() * 2
			hi := lo + rng.Float64()*3
			if rng.Float64() < 0.1 {
				hi = math.Inf(1)
			}
			vars[i] = p.AddVariable("", lo, hi, rng.NormFloat64()*10)
		}
		for c := 0; c < 1+rng.Intn(4); c++ {
			terms := make([]Term, 0, nv)
			for i := range vars {
				if rng.Float64() < 0.7 {
					terms = append(terms, Term{Var: vars[i], Coeff: rng.NormFloat64()})
				}
			}
			if len(terms) == 0 {
				terms = append(terms, Term{Var: vars[0], Coeff: 1})
			}
			rel := []Relation{LE, GE, EQ}[rng.Intn(3)]
			p.AddConstraint(rel, rng.NormFloat64()*3, terms...)
		}

		for _, bounded := range []bool{false, true} {
			p.SetBounded(bounded)
			want, errW := p.Minimize()
			got, errG := s.Solve(p)
			if (errW != nil) != (errG != nil) {
				t.Fatalf("iter %d bounded=%v: error mismatch: %v vs %v", it, bounded, errW, errG)
			}
			if errW != nil {
				continue
			}
			seen[want.Status]++
			if want.Status != got.Status {
				t.Fatalf("iter %d bounded=%v: status %v vs %v", it, bounded, want.Status, got.Status)
			}
			if want.Iterations != got.Iterations {
				t.Fatalf("iter %d bounded=%v: iterations %d vs %d", it, bounded, want.Iterations, got.Iterations)
			}
			if want.Status != Optimal {
				continue
			}
			if want.Objective != got.Objective {
				t.Fatalf("iter %d bounded=%v: objective %v vs %v", it, bounded, want.Objective, got.Objective)
			}
			for i := range vars {
				if want.Value(vars[i]) != got.Value(vars[i]) {
					t.Fatalf("iter %d bounded=%v: value[%d] %v vs %v",
						it, bounded, i, want.Value(vars[i]), got.Value(vars[i]))
				}
			}
		}
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if seen[st] == 0 {
			t.Errorf("no %v instance in the sequence (saw %v)", st, seen)
		}
	}
}

// TestProblemResetReusesStorage pins the Reset contract: rebuilding a
// same-shape problem after Reset produces identical solves and reuses
// the constraint storage (no growth in capacity).
func TestProblemResetReusesStorage(t *testing.T) {
	p := NewProblem()
	buildTransport(p, 2, 2, 2, 10, 20)
	first, err := p.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if p.NumVariables() != 0 || p.NumConstraints() != 0 {
		t.Fatalf("Reset left %d vars, %d cons", p.NumVariables(), p.NumConstraints())
	}
	x1, _, _ := buildTransport(p, 2, 2, 2, 10, 20)
	second, err := p.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if first.Objective != second.Objective {
		t.Fatalf("objective changed across Reset: %v vs %v", first.Objective, second.Objective)
	}
	if second.Value(x1) != first.Value(x1) {
		t.Fatalf("value changed across Reset: %v vs %v", first.Value(x1), second.Value(x1))
	}
}
