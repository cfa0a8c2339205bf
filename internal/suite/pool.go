package suite

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// poolWidth resolves the configured worker-pool width: 0 means
// GOMAXPROCS, and a negative width means sequential.
func (c Config) poolWidth() int {
	switch {
	case c.Parallel < 0:
		return 1
	case c.Parallel == 0:
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallel
}

// newTokens builds the shared spawn budget: poolWidth−1 tokens, since
// the goroutine entering the pool always works itself.
func (c Config) newTokens() chan struct{} {
	budget := c.poolWidth() - 1
	tokens := make(chan struct{}, budget)
	for i := 0; i < budget; i++ {
		tokens <- struct{}{}
	}
	return tokens
}

// Map runs fn for every index in [0, n) on the worker pool and returns
// the results in index order. The calling goroutine is always one of
// the workers; extra workers spawn only while a token from the run's
// shared budget (Config.Parallel total, GOMAXPROCS when zero) is
// available. The budget spans nested fan-outs: when suite.Run fans
// scenarios out and each scenario's runner calls Map for its own sweep,
// total concurrency across both levels stays bounded by the configured
// width instead of multiplying. Acquisition is non-blocking, so nesting
// can never deadlock — with no token to spare, a Map simply runs its
// jobs sequentially in its caller.
//
// Every job runs even after another job has failed (jobs are
// independent and cheap relative to scheduling bookkeeping); the error
// returned is the failed job with the lowest index, so error reporting
// is deterministic regardless of completion order.
func Map[T any](cfg Config, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	tokens := cfg.tokens
	if tokens == nil {
		// Direct call outside a suite run: this Map is the pool.
		tokens = cfg.newTokens()
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			out[i], errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
spawn:
	for spawned := 0; spawned < n-1; spawned++ {
		select {
		case <-tokens:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { tokens <- struct{}{} }()
				work()
			}()
		default:
			break spawn
		}
	}
	work()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	return out, nil
}

// Result pairs a scenario with its outcome.
type Result struct {
	Scenario Scenario
	Table    *Table
	Err      error
}

// Run executes the scenarios as pool jobs — sharing one worker budget
// with every nested Map the scenario runners issue — and returns one
// Result per scenario, in input order. Unlike Map it does not stop at
// the first failure: drivers like cmd/experiments want every table that
// did succeed plus the per-scenario errors.
func Run(cfg Config, scns []Scenario) []Result {
	if cfg.tokens == nil {
		cfg.tokens = cfg.newTokens()
	}
	results, _ := Map(cfg, len(scns), func(i int) (Result, error) {
		tbl, err := scns[i].Run(cfg)
		if err != nil {
			err = fmt.Errorf("suite: scenario %s: %w", scns[i].Name, err)
		}
		return Result{Scenario: scns[i], Table: tbl, Err: err}, nil
	})
	return results
}

// RunSuite resolves the selectors (names or tags; none selects every
// registered scenario) and runs the matching scenarios on the pool. On
// failure it returns the error of the first failing scenario in
// registration order.
func RunSuite(cfg Config, selectors ...string) ([]*Table, error) {
	scns, err := Select(selectors...)
	if err != nil {
		return nil, err
	}
	results := Run(cfg, scns)
	tables := make([]*Table, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		tables[i] = r.Table
	}
	return tables, nil
}
