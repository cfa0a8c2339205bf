package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"github.com/smartdpss/smartdpss/internal/baseline"
	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/geo"
)

// The geo-lp point: the geo-div fleet at its ±30 % spread.
const (
	geoSites      = 3
	geoSpread     = 0.3
	geoPenaltyUSD = 5
)

// geoInstances is how many trace draws of the point the passes rotate
// through. The LP's pivot count, and so its time, differs from draw to
// draw by tens of percent; rotating makes a run's median describe the
// point rather than one draw.
const geoInstances = 4

// geoInstance is one trace draw of the point.
type geoInstance struct {
	sites []geo.SiteSpec
	lp    []baseline.GeoSite // the same sites as the coupled LP sees them
}

type geoLP struct {
	instances []geoInstance
	n         int     // instances started; a traced run gives each two passes
	allIn     float64 // supply cost plus routing penalty per slot, last pass

	// Per traced pass, against that pass's RunGeo(LP) time.
	solveShare, explained, route []float64
}

func runGeoLP(e *env) error {
	w := &geoLP{}
	if err := e.setup(func() error { return w.setup(e) }); err != nil {
		return err
	}
	if err := e.timed(geoInstances, w.pass(e)); err != nil {
		return err
	}
	if e.rec == nil {
		e.extra = append(e.extra, extraMetric{"all_in_usd_per_slot", "USD", w.allIn})
		return nil
	}
	e.layer["baseline.geo_solve_s"] = median(e.rec.durations("baseline.geo_solve"))
	e.layer["baseline.geo_solve_share"] = median(w.solveShare)
	e.layer["geo.run_none_ms"] = median(e.rec.durations("geo.run_none")) * 1e3
	e.layer["geo.route_s"] = median(w.route)
	e.layer["trace.explained_share"] = median(w.explained)
	return nil
}

// geoSiteSpecs builds the geo-div fleet for a seed: site 0 is the base
// scope, sites 1..n−1 take derived seeds and spread their grid prices
// from 1−spread to 1+spread, with the price cap scaled alongside.
func geoSiteSpecs(seed int64) []geo.SiteSpec {
	sites := make([]geo.SiteSpec, geoSites)
	for i := range sites {
		tc := engine.DefaultTraceConfig()
		tc.Seed = seed
		opts := engine.DefaultOptions()
		if i > 0 {
			tc.Seed = seed + int64(i)*7919
			scale := 1 - geoSpread + 2*geoSpread*float64(i-1)/float64(geoSites-2)
			tc.PriceScale = scale
			if scale > 1 {
				opts.PmaxUSD *= scale
			}
		}
		sites[i] = geo.SiteSpec{
			Name:                   fmt.Sprintf("s%d", i),
			Options:                opts,
			Trace:                  tc,
			ImportPenaltyUSDPerMWh: geoPenaltyUSD,
		}
	}
	return sites
}

// setup builds the site specs of every instance and generates the
// traces the coupled LP probe solves over. Instance k of seed s draws
// its site seeds from s+1000k; instance 0 of seed 1 is the suite's own
// geo-div point.
func (w *geoLP) setup(e *env) error {
	t := e.rec.begin("bench.setup")
	defer e.rec.finish(t)
	instances := make([]geoInstance, geoInstances)
	for k := range instances {
		sites := geoSiteSpecs(e.seed + 1000*int64(k))
		lp := make([]baseline.GeoSite, len(sites))
		for i, s := range sites {
			tr, err := generate(t, 0, s.Trace)
			if err != nil {
				return err
			}
			lp[i] = baseline.GeoSite{
				Config:           s.Options.BaselineConfig(),
				Set:              tr.Set(),
				ImportPenaltyUSD: s.ImportPenaltyUSDPerMWh,
				RouteCapMWh:      s.Options.PeakMW * float64(tr.Set().DemandDS.SlotMinutes) / 60,
			}
		}
		instances[k] = geoInstance{sites: sites, lp: lp}
	}
	w.instances = instances
	return nil
}

func runGeo(in geoInstance, router geo.Router) (*geo.Result, error) {
	return geo.Run(geo.Config{Sites: in.sites, Policy: engine.PolicySmartDPSS, Router: router, Parallel: 1})
}

// pass runs the LP-routed fleet of the next instance once. A traced pass
// also times the coupled LP on its own and the unrouted fleet, which
// split the run into the LP solve and the rest. The probes run before
// the routed run on half the traced passes and after it on the others,
// so neither order's effect on the heap and caches biases the split. In
// a traced run the untraced and the traced pass of a pair share an
// instance, so the tracing overhead compares like with like.
func (w *geoLP) pass(e *env) func(traced bool) error {
	return func(traced bool) error {
		k := w.n % geoInstances
		// Alternate the order from pass to pass and, for each instance,
		// from one round of instances to the next.
		probeFirst := traced && (w.n+w.n/geoInstances)%2 == 1
		if e.rec == nil || traced {
			w.n++
		}
		in := w.instances[k]
		var t *tree
		var solve, none float64
		if traced {
			t = e.rec.begin("geo.pass")
		}
		if probeFirst {
			solve, none = probeGeo(e, t, k, in)
			runtime.GC()
		}
		var res *geo.Result
		id := t.start("geo.run_lp", 0)
		m, err := measure(func() (err error) {
			res, err = runGeo(in, geo.RouterLP)
			return err
		})
		t.stop(id)
		e.pass(m, traced)
		if e.check("geo run", err) {
			e.check("geo run", checkGeoResult(e, k, res))
			w.allIn = (res.TotalCostUSD + res.RoutingPenaltyUSD) / float64(res.Slots)
		}
		if traced && !probeFirst {
			res = nil
			runtime.GC()
			solve, none = probeGeo(e, t, k, in)
		}
		if traced {
			// RunGeo is opaque from outside; its layers are timed as
			// separate calls on the same inputs. Their sum is not
			// bounded by the run's time, so the shares may exceed 1.
			run := m.wall.Seconds()
			w.solveShare = append(w.solveShare, solve/run)
			w.explained = append(w.explained, (solve+none)/run)
			w.route = append(w.route, run-none)
		}
		e.rec.finish(t)
		return nil
	}
}

// checkGeoResult checks routing conservation (every MWh exported by one
// site is imported by another) and that the run repeats exactly. The
// all-in cost is reported, not checked against a reference: an equally
// optimal LP vertex may route differently.
func checkGeoResult(e *env, k int, res *geo.Result) error {
	var in, out float64
	for _, s := range res.Sites {
		in += s.ImportedMWh
		out += s.ExportedMWh
	}
	if math.Abs(in-out) > 1e-6 {
		return fmt.Errorf("imported %.9f MWh, exported %.9f MWh", in, out)
	}
	return e.repeats("geo.run."+strconv.Itoa(k), fmt.Sprintf("%v/%v/%v", res.TotalCostUSD, res.RoutingPenaltyUSD, res.MovedMWh))
}

// probeGeo times the coupled LP and the unrouted fleet of instance k
// and returns both times in seconds.
func probeGeo(e *env, t *tree, k int, in geoInstance) (solve, none float64) {
	var plan *baseline.GeoRoutingPlan
	id := t.start("baseline.geo_solve", 0)
	m, err := measure(func() (err error) {
		plan, err = baseline.SolveGeoHorizon(in.lp)
		return err
	})
	t.stop(id)
	e.layer["baseline.geo_solve_alloc_mb"] = float64(m.allocBytes) / 1e6
	e.layer["baseline.geo_solve_allocs"] = float64(m.allocObject)
	if e.check("geo LP", err) {
		e.check("geo LP", checkGeoPlan(e, k, plan))
	}

	runtime.GC()
	id = t.start("geo.run_none", 0)
	t0 := time.Now()
	_, err = runGeo(in, geo.RouterNone)
	none = time.Since(t0).Seconds()
	t.stop(id)
	e.check("geo unrouted run", err)
	return m.wall.Seconds(), none
}

// checkGeoPlan checks the coupled LP: moved energy balances, and the
// objective, which is unique even where the optimal vertex is not,
// matches the recorded reference within 1e-6 relative.
func checkGeoPlan(e *env, k int, plan *baseline.GeoRoutingPlan) error {
	var in, out float64
	for s := range plan.ImportMWh {
		in += plan.ImportMWh[s]
		out += plan.ExportMWh[s]
	}
	if math.Abs(in-out) > 1e-6 {
		return fmt.Errorf("LP imports %.9f MWh, exports %.9f MWh", in, out)
	}
	key := "geo.objective." + strconv.Itoa(k)
	got := strconv.FormatFloat(plan.Objective, 'g', 17, 64)
	if want, ok := e.ref[key]; ok {
		ref, err := strconv.ParseFloat(want, 64)
		if err != nil {
			return fmt.Errorf("reference objective %q: %w", want, err)
		}
		if math.Abs(plan.Objective-ref) > 1e-6*math.Abs(ref) {
			return fmt.Errorf("LP objective %s, reference %s", got, want)
		}
	}
	e.observed[key] = got
	return nil
}
