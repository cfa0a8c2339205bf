// Package smartdpss is a Go implementation of SmartDPSS, the
// cost-minimizing multi-source datacenter power supply controller of
// Deng, Liu, Jin and Wu (ICDCS 2013).
//
// A datacenter power supply system (DPSS) draws energy from a two-market
// smart grid (long-term-ahead and real-time), on-site renewable
// production, a UPS battery, and — beyond the paper — a dispatchable
// on-site generator (the provisioning setting of arXiv:1303.6775),
// serving a mix of delay-sensitive and delay-tolerant demand. SmartDPSS
// is an online two-timescale Lyapunov controller that minimizes long-run
// operation cost without any knowledge of future demand, renewable
// output or prices, trading cost against service delay through a single
// parameter V (Theorem 2's [O(1/V), O(V)] tradeoff).
//
// # Quickstart
//
//	traces, err := smartdpss.GenerateTraces(smartdpss.DefaultTraceConfig())
//	if err != nil { ... }
//	report, err := smartdpss.Simulate(smartdpss.PolicySmartDPSS,
//		smartdpss.DefaultOptions(), traces)
//	if err != nil { ... }
//	fmt.Println(report)
//
// The library also ships the paper's comparison policies (Impatient, two
// clairvoyant offline benchmarks and a receding-horizon lookahead),
// synthetic trace generators standing in for the paper's MIDC solar,
// NYISO price and Google-cluster workload datasets, and an experiment
// harness reproducing every figure of the paper's evaluation.
//
// # On-site generation
//
// Options carries a generator block (GeneratorMW, GeneratorMinLoadFrac,
// GeneratorRampMW, FuelUSDPerMWh, FuelQuadUSD, GeneratorStartupUSD,
// GeneratorStartupLagSlots). With GeneratorMW > 0 every optimizing
// policy — SmartDPSS, the two offline benchmarks and the lookahead
// controller — gains a fourth dispatch arm: fuel-priced output competing
// with the two markets and the battery; Report gains the generator cost
// and energy lines. The Impatient strawman ignores the unit by design
// (it models an operator with no cost optimization at all). With
// GeneratorMW == 0 the subsystem is inert and results are identical to
// generator-free builds.
//
// # Generator fleets, unit commitment and emissions
//
// Options.Fleet generalizes the single unit to N heterogeneous units
// (UnitSpec: capacity, minimum stable load, ramp, fuel curve, startup
// cost/lag, CO₂ intensity), dispatched in merit order; the legacy
// GeneratorMW options are exactly a one-unit fleet. Options.CommitWindow
// W > 1 replaces the per-slot amortized-startup hysteresis with a
// rolling unit-commitment lookahead: starts and stops weigh the
// projected margin over the next W slots (forecast price × the demand
// envelope) against the full startup cost, holding units through the
// short price dips the myopic W ≤ 1 arm flaps on. Report carries
// per-unit accounting (GenUnits) and fleet emissions (GenCO2Kg);
// Options.CarbonUSDPerTon folds each unit's emission intensity into its
// marginal fuel price so dispatch internalizes the carbon bill.
//
// # Price scaling: grid vs fuel
//
// TraceConfig.PriceScale multiplies the two GRID price series
// (long-term and real-time) only — fuel costs never move with it. The
// fuel side has its own axis: TraceConfig.FuelPriceScale sets the mean
// level of a per-slot fuel-price multiplier series applied to every
// unit's fuel curve, and TraceConfig.FuelVolatility adds a seeded
// mean-reverting walk around that level, so fuel can vary over time
// like the gas markets of arXiv:1308.0585. Leaving both at their zero
// values generates no fuel series and reproduces static-fuel runs
// exactly.
//
// # Scenario suite
//
// Every experiment registers itself as a named, tagged Scenario in a
// registry; RunSuite fans the selected scenarios out across a worker
// pool and returns their tables in deterministic registration order:
//
//	tables, err := smartdpss.RunSuite(smartdpss.DefaultSuiteConfig(), "paper")
//
// Selectors are scenario names ("fig6v", "prov-grid", "fleet-uc") or
// tags ("paper", "ext", "provision", "fleet", "geo"); output is
// byte-identical at every parallelism level for a fixed seed, and the
// paper figures are additionally pinned against committed golden
// snapshots (internal/experiments/testdata/golden, enforced by
// TestSuiteGolden).
//
// # Geo-distributed fleets
//
// RunGeo lifts the single-site engine to N sites in different pricing
// regions, coupled by a front end that routes delay-sensitive request
// traffic between them (the workload-modulation formulation of
// arXiv:1308.0585). Each GeoSiteSpec carries its own Options and
// TraceConfig; sites step concurrently — one goroutine per site behind
// a deterministic fixed-order reduce — so a GeoResult is byte-identical
// at every GOMAXPROCS, and a one-site fleet with GeoRouterNone
// reproduces Simulate exactly. GeoRouterGreedy moves load from the most
// expensive region to cheaper ones per slot using only that slot's
// observables; GeoRouterLP solves one coupled routing+supply LP over
// the whole horizon on the sparse simplex and replays its routing
// through each site's controller. The "geo" scenario family sweeps
// price divergence, site count (1→8) and the latency-penalty frontier.
//
// # Batch and streaming: one computation, two drivers
//
// Simulate is a thin loop over the resumable session API. NewSession
// builds a streaming session for the online policies (PolicySmartDPSS,
// PolicyImpatient): each slot is Step(SlotInput) → Decision, then
// Commit() → SlotOutcome, with Status() exposing live totals between
// slots and Finish() producing the same Report Simulate returns.
// NewReplaySession binds a session to a generated trace set (StepReplay
// feeds the next row each slot) and accepts every policy, including the
// clairvoyant offline benchmarks.
//
// The layering guarantee is byte-equivalence: driving a session slot by
// slot — in one process, or split across processes via Snapshot/Restore
// checkpoints — produces a Report byte-identical to batch Simulate over
// the same inputs. Checkpoints embed a configuration digest, so Restore
// refuses state from a differently configured run (ErrSnapshotMismatch)
// instead of resuming one run's state under another run's physics, and
// rejects malformed bytes (ErrCorruptCheckpoint) without touching the
// session. After its first call Snapshot allocates only the slice it
// returns; AppendSnapshot encodes into a caller-reused buffer. All
// construction-time failures are branchable via errors.Is with
// ErrInvalidOptions and friends, and field-level causes via errors.As
// with *ValidationError.
//
// cmd/dpss-serve wraps the session in a long-lived daemon: a pluggable
// ingest source (trace replay today; live telemetry adapters behind the
// same interface), periodic atomic checkpoints for crash recovery, and
// an OpenMetrics /metrics endpoint plus /healthz and /status.
//
// # Architecture: a facade over internal packages
//
// This package contains no logic of its own — it re-exports, via type
// aliases and thin wrappers, the layers below:
//
//	smartdpss (public facade: aliases + wrappers, this package)
//	  ├── internal/engine       Options/TraceConfig/Simulate/Session —
//	  │     │                   wires the pieces together behind the facade
//	  │     ├── internal/core       the SmartDPSS controller (P4/P5)
//	  │     ├── internal/baseline   Impatient, offline LPs, lookahead
//	  │     ├── internal/sim        the slot-by-slot execution engine
//	  │     ├── internal/battery    the UPS model (Eq. 3, Nmax budget)
//	  │     ├── internal/generator  dispatchable on-site generation
//	  │     ├── internal/market     the two-timescale grid account
//	  │     └── internal/{workload,solar,wind,pricing,thermal,trace}
//	  │                           synthetic input generators
//	  ├── internal/geo          geo-distributed fleet: per-site
//	  │                         sessions stepped concurrently behind a
//	  │                         deterministic reduce, workload routers
//	  ├── internal/serve        service harness for cmd/dpss-serve:
//	  │                         ingest sources, checkpointing daemon,
//	  │                         OpenMetrics exposition + validator
//	  ├── internal/suite        scenario registry, deterministic worker
//	  │                         pool (Map), memoized trace cache
//	  └── internal/experiments  one registered runner per reproduced
//	                            figure / extension / provisioning study
//
// Keeping the implementation internal means the public surface is the
// stable, documented subset: policies, options, traces, reports, bounds,
// the session API and the suite entry points. cmd/dpss-sim,
// cmd/trace-gen, cmd/experiments and cmd/dpss-serve are thin CLIs over
// the same facade.
package smartdpss
