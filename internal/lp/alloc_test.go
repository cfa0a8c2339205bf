package lp

import (
	"math/rand"
	"testing"
)

// Tests of the storage contract: the problem's term arena copies the
// caller's terms and sums duplicates, and the sparse path's arenas grow
// geometrically, so solves allocate a small fixed number of times cold
// and nothing once warm.

// TestAddConstraintCopiesTerms pins the copy side of the arena
// contract: the caller's build buffer is reusable the moment
// AddConstraint returns, and duplicate terms still sum.
func TestAddConstraintCopiesTerms(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 10, -1)
	y := p.AddVariable("y", 0, 10, -1)
	buf := []Term{{x, 1}, {y, 1}}
	p.AddConstraint(LE, 4, buf...)
	buf[0], buf[1] = Term{x, 100}, Term{y, 100} // must not reach row 0
	buf = append(buf[:0], Term{x, 1}, Term{x, 1})
	p.AddConstraint(LE, 2, buf...) // 2x ≤ 2
	buf[0].Coeff = 0

	if got := p.rowTerms(p.cons[0]); len(got) != 2 || got[0] != (Term{x, 1}) || got[1] != (Term{y, 1}) {
		t.Fatalf("row 0 terms = %v after the caller reused its buffer", got)
	}
	for _, sparse := range []bool{false, true} {
		p.SetSparse(sparse)
		var s Solver
		sol, err := s.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		// x ≤ 1 from the summed duplicate, then y = 3 fills row 0.
		if !almostEqual(sol.Value(x), 1) || !almostEqual(sol.Value(y), 3) || !almostEqual(sol.Objective, -4) {
			t.Fatalf("sparse=%v: x=%v y=%v obj=%v, want 1, 3, -4",
				sparse, sol.Value(x), sol.Value(y), sol.Objective)
		}
	}
}

// bigStaircase is a feasible staircase LP with 3h+1 rows in bounded
// mode, large enough that a solve refactorizes many times as the L/U
// and eta fill creeps up.
func bigStaircase(h int) staircaseLP {
	r := rand.New(rand.NewSource(2024))
	return genStaircaseLP(r).stretch(r, h)
}

// TestSparseWarmResolveAllocatesNothing: once a Solver's arenas have
// grown, re-solving the same sparse staircase — and rebuilding it in
// place after Reset — allocates nothing.
func TestSparseWarmResolveAllocatesNothing(t *testing.T) {
	g := bigStaircase(200)
	p := NewProblem()
	p.SetBounded(true)
	p.SetSparse(true)
	g.buildInto(p)
	var s Solver
	first, err := s.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if first.Iterations <= maxEtas {
		t.Fatalf("%d pivots never refactorize; enlarge the staircase", first.Iterations)
	}
	resolve := func() {
		sol, err := s.Solve(p)
		if err != nil || sol.Objective != first.Objective || sol.Iterations != first.Iterations {
			t.Fatalf("re-solve diverged: %v/%d (%v), want %v/%d",
				sol.Objective, sol.Iterations, err, first.Objective, first.Iterations)
		}
	}
	if allocs := testing.AllocsPerRun(3, resolve); allocs != 0 {
		t.Errorf("re-solve allocated %v times, want 0", allocs)
	}
	rebuild := func() {
		p.Reset()
		g.buildInto(p)
		resolve()
	}
	if allocs := testing.AllocsPerRun(3, rebuild); allocs != 0 {
		t.Errorf("Reset, rebuild and re-solve allocated %v times, want 0", allocs)
	}
}

// coldAllocCeiling bounds a cold sparse build-and-solve of the
// bigStaircase(700) model (2101 rows, 3500 variables), which measures
// 256 allocations: geometric growth makes the count grow with the
// logarithm of the model size, where a per-row term copy alone would
// cost 2101.
const coldAllocCeiling = 300

// TestSparseColdSolveAllocationCeiling builds and solves a ≥2000-row
// staircase on a fresh Problem and Solver under a fixed allocation
// ceiling.
func TestSparseColdSolveAllocationCeiling(t *testing.T) {
	g := bigStaircase(700)
	var rows, iters int
	allocs := testing.AllocsPerRun(1, func() {
		p := NewProblem()
		p.SetBounded(true)
		p.SetSparse(true)
		g.buildInto(p)
		var s Solver
		sol, err := s.Solve(p)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("cold solve: %v (%v)", sol.Status, err)
		}
		rows, iters = p.NumConstraints(), sol.Iterations
	})
	if rows < 2000 {
		t.Fatalf("model has %d rows, want at least 2000", rows)
	}
	t.Logf("%d rows, %d pivots, %v allocations", rows, iters, allocs)
	if allocs > coldAllocCeiling {
		t.Errorf("cold sparse solve allocated %v times, ceiling %d", allocs, coldAllocCeiling)
	}
}

// TestTransposesFollowFactorCapacity: the transposed factor arrays are
// sized from the capacity of the L/U arrays they mirror, so a
// refactorization whose fill creeps up within that capacity reuses them
// instead of reallocating at the new exact length.
func TestTransposesFollowFactorCapacity(t *testing.T) {
	rs := makeRevisedBasis(randomSparseCols(rand.New(rand.NewSource(3)), 60))
	lu := &rs.lu
	lu.factorize(rs)
	if len(lu.urow) == 0 || len(lu.lrow) == 0 {
		t.Fatalf("factorization has %d U and %d L entries; want both nonzero", len(lu.urow), len(lu.lrow))
	}
	if cap(lu.utK) < cap(lu.urow) || cap(lu.utV) < cap(lu.urow) {
		t.Errorf("U transpose cap %d/%d below the U factor's %d", cap(lu.utK), cap(lu.utV), cap(lu.urow))
	}
	if cap(lu.ltK) < cap(lu.lrow) || cap(lu.ltV) < cap(lu.lrow) {
		t.Errorf("L transpose cap %d/%d below the L factor's %d", cap(lu.ltK), cap(lu.ltV), cap(lu.lrow))
	}
	ut, lt := &lu.utK[0], &lu.ltK[0]
	lu.factorize(rs)
	if &lu.utK[0] != ut || &lu.ltK[0] != lt {
		t.Error("refactorizing the same basis reallocated the transposes")
	}
}
