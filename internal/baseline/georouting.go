package baseline

import (
	"errors"
	"fmt"
	"math"

	"github.com/smartdpss/smartdpss/internal/lp"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// GeoSite describes one datacenter inside a coupled routing+supply
// solve: its supply-side configuration and traces, plus the routing
// constraints the front end applies to it — a per-slot cap on the
// delay-sensitive demand it may end up serving and a latency penalty
// charged per imported MWh.
type GeoSite struct {
	// Config is the site's supply-side configuration (markets, battery,
	// fleet), exactly as a standalone OfflineHorizon would consume it.
	Config Config
	// Set is the site's trace set; DemandDS is the site's home demand
	// before routing.
	Set *trace.Set
	// ImportPenaltyUSD is the cost in USD per MWh of demand moved to
	// this site, the LP's proxy for the latency of serving a request
	// away from its home region.
	ImportPenaltyUSD float64
	// RouteCapMWh caps the site's post-routing delay-sensitive demand
	// per slot. Zero means uncapped.
	RouteCapMWh float64
}

// GeoRoutingPlan is the solved joint plan's routing projection: the
// post-routing delay-sensitive demand per site per slot, and the moved
// energy totals. The supply-side decisions are deliberately not
// extracted — the geo runner replays the routed demand through each
// site's own controller, so the plan stays policy-agnostic.
type GeoRoutingPlan struct {
	// Objective is the joint LP optimum: total supply cost across all
	// sites plus the routing penalties.
	Objective float64
	// RoutedDS[s][i] is site s's delay-sensitive demand in slot i after
	// routing (home − exported + imported, clamped at zero).
	RoutedDS [][]float64
	// ImportMWh and ExportMWh are each site's total moved energy.
	ImportMWh []float64
	ExportMWh []float64
	// PenaltyUSD is the total routing penalty Σ_s penalty_s·import_s
	// included in Objective.
	PenaltyUSD float64
}

// SolveGeoHorizon solves the coupled routing+supply LP over the whole
// horizon: every site's staircase supply block (identical structure to
// the OfflineHorizon staircase form) plus, per site per slot, an export
// variable out ∈ [0, home] and a penalized import variable in ≥ 0 that
// shift the balance row's demand, a per-site routing-capacity row, and
// one per-slot conservation row Σout − Σin = 0 coupling the sites. With
// one site, or with penalties that exceed every price gap, the coupling
// is inactive and the optimum equals the sum of independent per-site
// horizon solves — the parity property the tests pin.
func SolveGeoHorizon(sites []GeoSite) (*GeoRoutingPlan, error) {
	if len(sites) == 0 {
		return nil, errors.New("baseline: geo solve needs at least one site")
	}
	for s := range sites {
		if err := sites[s].Config.Validate(); err != nil {
			return nil, fmt.Errorf("baseline: geo site %d: %w", s, err)
		}
		if err := sites[s].Set.Validate(); err != nil {
			return nil, fmt.Errorf("baseline: geo site %d: %w", s, err)
		}
		if sites[s].ImportPenaltyUSD < 0 {
			return nil, fmt.Errorf("baseline: geo site %d: negative ImportPenaltyUSD", s)
		}
		if sites[s].RouteCapMWh < 0 {
			return nil, fmt.Errorf("baseline: geo site %d: negative RouteCapMWh", s)
		}
	}
	H := sites[0].Set.Horizon()
	slotMinutes := sites[0].Set.DemandDS.SlotMinutes
	for s := 1; s < len(sites); s++ {
		if sites[s].Set.Horizon() != H {
			return nil, fmt.Errorf("baseline: geo site %d has horizon %d, want %d",
				s, sites[s].Set.Horizon(), H)
		}
		if sites[s].Set.DemandDS.SlotMinutes != slotMinutes {
			return nil, fmt.Errorf("baseline: geo site %d has %d-minute slots, want %d",
				s, sites[s].Set.DemandDS.SlotMinutes, slotMinutes)
		}
	}

	var st lpState
	st.sparse = true
	prob := st.problem()

	nS := len(sites)
	outV := make([][]lp.VarID, nS)
	inV := make([][]lp.VarID, nS)
	for s := range sites {
		outV[s], inV[s] = addGeoSiteBlock(prob, &st, &sites[s], H)
	}

	// Per-slot conservation: demand leaves one site only by arriving at
	// another in the same slot.
	for i := 0; i < H; i++ {
		terms := st.terms[:0]
		for s := 0; s < nS; s++ {
			terms = append(terms,
				lp.Term{Var: outV[s][i], Coeff: 1},
				lp.Term{Var: inV[s][i], Coeff: -1},
			)
		}
		st.terms = terms
		prob.AddConstraint(lp.EQ, 0, terms...)
	}

	sol, err := st.solve(prob)
	if err != nil {
		return nil, fmt.Errorf("baseline: geo LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("baseline: geo LP: %v", sol.Status)
	}

	plan := &GeoRoutingPlan{
		Objective: sol.Objective,
		RoutedDS:  make([][]float64, nS),
		ImportMWh: make([]float64, nS),
		ExportMWh: make([]float64, nS),
	}
	for s := range sites {
		routed := make([]float64, H)
		for i := 0; i < H; i++ {
			in := sol.Value(inV[s][i])
			out := sol.Value(outV[s][i])
			plan.ImportMWh[s] += in
			plan.ExportMWh[s] += out
			v := sites[s].Set.DemandDS.At(i) - out + in
			if v < 0 {
				v = 0
			}
			routed[i] = v
		}
		plan.RoutedDS[s] = routed
		plan.PenaltyUSD += sites[s].ImportPenaltyUSD * plan.ImportMWh[s]
	}
	return plan, nil
}

// addGeoSiteBlock appends one site's staircase supply block to the
// joint problem — the same variables and rows as the OfflineHorizon
// staircase formulation — plus the per-slot routing pair (out, in)
// wired into the balance row and the optional routing-capacity row. It
// returns the routing variable ids; the supply ids stay internal since
// the plan only extracts routing.
func addGeoSiteBlock(prob *lp.Problem, st *lpState, site *GeoSite, H int) (outV, inV []lp.VarID) {
	cfg, set := site.Config, site.Set
	bat := cfg.Battery
	inf := math.Inf(1)
	T := cfg.T
	K := (H + T - 1) / T

	gbef := make([]lp.VarID, K)
	intervalLen := make([]int, K)
	for k := 0; k < K; k++ {
		n := minInt(T, H-k*T)
		intervalLen[k] = n
		plt := set.PriceLT.At(k * T)
		gbef[k] = prob.AddVariable("gbef", 0, float64(n)*cfg.PgridMWh, plt)
	}

	grt := make([]lp.VarID, H)
	u := make([]lp.VarID, H)
	c := make([]lp.VarID, H)
	d := make([]lp.VarID, H)
	w := make([]lp.VarID, H)
	e := make([]lp.VarID, H)
	bl := make([]lp.VarID, H) // battery level after slot i
	us := make([]lp.VarID, H) // cumulative served through slot i
	outV = make([]lp.VarID, H)
	inV = make([]lp.VarID, H)
	units := cfg.genUnits()
	var g [][][]lp.VarID
	if len(units) > 0 {
		g = make([][][]lp.VarID, H)
	}
	proxy := 0.0
	if bat.MaxChargeMWh > 0 {
		proxy = bat.OpCostUSD / math.Max(bat.MaxChargeMWh, bat.MaxDischargeMWh)
	}
	avail := 0.0
	for i := 0; i < H; i++ {
		prt := set.PriceRT.At(i)
		grt[i] = prob.AddVariable("", 0, cfg.PgridMWh, prt)
		u[i] = prob.AddVariable("", 0, cfg.SdtMaxMWh, 0)
		c[i] = prob.AddVariable("", 0, bat.MaxChargeMWh, proxy)
		d[i] = prob.AddVariable("", 0, bat.MaxDischargeMWh, proxy)
		w[i] = prob.AddVariable("", 0, inf, cfg.WasteCostUSD)
		e[i] = prob.AddVariable("", 0, inf, cfg.EmergencyCostUSD)
		if g != nil {
			g[i] = addFleetVars(prob, units, i, T, set.FuelScaleAt(i))
		}
		avail += set.DemandDT.At(i)
		bl[i] = prob.AddVariable("B", bat.MinLevelMWh, bat.CapacityMWh, 0)
		us[i] = prob.AddVariable("U", 0, avail, 0)
		outV[i] = prob.AddVariable("out", 0, set.DemandDS.At(i), 0)
		inV[i] = prob.AddVariable("in", 0, inf, site.ImportPenaltyUSD)
	}

	b0 := bat.InitialMWh
	for i := 0; i < H; i++ {
		k := i / T
		invN := 1.0 / float64(intervalLen[k])
		dds := set.DemandDS.At(i)
		r := set.Renewable.At(i)

		// Supply balance against the post-routing demand dds − out + in:
		// moving out and in to the left keeps the staircase RHS.
		balance := append(st.terms[:0],
			lp.Term{Var: gbef[k], Coeff: invN},
			lp.Term{Var: grt[i], Coeff: 1},
			lp.Term{Var: d[i], Coeff: 1},
			lp.Term{Var: e[i], Coeff: 1},
			lp.Term{Var: u[i], Coeff: -1},
			lp.Term{Var: c[i], Coeff: -1},
			lp.Term{Var: w[i], Coeff: -1},
			lp.Term{Var: outV[i], Coeff: 1},
			lp.Term{Var: inV[i], Coeff: -1},
		)
		if g != nil {
			balance = appendFleetTerms(balance, g[i])
		}
		st.terms = balance
		prob.AddConstraint(lp.EQ, dds-r, balance...)
		prob.AddConstraint(lp.LE, cfg.PgridMWh,
			lp.Term{Var: gbef[k], Coeff: invN},
			lp.Term{Var: grt[i], Coeff: 1},
		)
		smax := append(st.terms[:0],
			lp.Term{Var: gbef[k], Coeff: invN},
			lp.Term{Var: grt[i], Coeff: 1},
		)
		if g != nil {
			smax = appendFleetTerms(smax, g[i])
		}
		st.terms = smax
		prob.AddConstraint(lp.LE, cfg.SmaxMWh-r, smax...)

		// Routing capacity: post-routing demand home − out + in may not
		// exceed the site's serving capacity, i.e. in − out ≤ cap − home.
		if site.RouteCapMWh > 0 {
			prob.AddConstraint(lp.LE, site.RouteCapMWh-dds,
				lp.Term{Var: inV[i], Coeff: 1},
				lp.Term{Var: outV[i], Coeff: -1},
			)
		}

		// Battery state transition, identical to the staircase form.
		if i == 0 {
			prob.AddConstraint(lp.EQ, b0,
				lp.Term{Var: bl[0], Coeff: 1},
				lp.Term{Var: c[0], Coeff: -bat.ChargeEff},
				lp.Term{Var: d[0], Coeff: bat.DischargeEff},
			)
		} else {
			prob.AddConstraint(lp.EQ, 0,
				lp.Term{Var: bl[i], Coeff: 1},
				lp.Term{Var: bl[i-1], Coeff: -1},
				lp.Term{Var: c[i], Coeff: -bat.ChargeEff},
				lp.Term{Var: d[i], Coeff: bat.DischargeEff},
			)
		}

		// Served accumulator, identical to the staircase form.
		if i == 0 {
			prob.AddConstraint(lp.EQ, 0,
				lp.Term{Var: us[0], Coeff: 1},
				lp.Term{Var: u[0], Coeff: -1},
			)
		} else {
			prob.AddConstraint(lp.EQ, 0,
				lp.Term{Var: us[i], Coeff: 1},
				lp.Term{Var: us[i-1], Coeff: -1},
				lp.Term{Var: u[i], Coeff: -1},
			)
		}
	}

	// Per-interval delay-tolerant deadlines, identical to the staircase
	// form; delay-tolerant demand never routes.
	arrived := 0.0
	for k := 0; k < K; k++ {
		end := k*T + intervalLen[k]
		for i := k * T; i < end; i++ {
			arrived += set.DemandDT.At(i)
		}
		slack := prob.AddVariable("slack", 0, inf, cfg.EmergencyCostUSD)
		prob.AddConstraint(lp.GE, arrived,
			lp.Term{Var: us[end-1], Coeff: 1},
			lp.Term{Var: slack, Coeff: 1},
		)
	}

	return outV, inV
}
