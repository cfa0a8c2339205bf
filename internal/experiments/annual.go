package experiments

import (
	"fmt"

	dpss "github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/suite"
)

// ExtAnnualDays is the horizon of the annual study: a full year of
// hourly slots (8760), the scale the paper's one-month evaluation
// cannot reach.
const ExtAnnualDays = 365

// ExtAnnual is the year-long scenario the sparse revised simplex
// unlocks: the whole-horizon clairvoyant LP spans 8760 fine slots in
// the staircase form, whose matrix stays linear in the horizon (the
// interval LP's chain-form prefix rows stretched over a year would be
// quadratic), and is compared against the per-interval
// offline decomposition and the online policies over the same year.
// Seasonal solar amplitude makes the cross-interval planning question
// real: the annual horizon LP can shift service across months, the
// per-interval benchmark cannot. Each policy is a pool job; the runner
// always forces a 365-day trace set regardless of cfg.Days so the
// scenario measures the annual scale by construction. SkipOffline
// drops the two clairvoyant rows (they dominate the runtime).
func ExtAnnual(cfg Config) (*Table, error) {
	tc := cfg.TraceConfig()
	tc.Days = ExtAnnualDays
	traces, err := suite.Traces(tc)
	if err != nil {
		return nil, err
	}
	defer suite.Release(traces)
	opts := dpss.DefaultOptions()

	type entry struct {
		label   string
		policy  dpss.Policy
		offline bool
	}
	entries := []entry{
		{"SmartDPSS", dpss.PolicySmartDPSS, false},
		{"Impatient", dpss.PolicyImpatient, false},
		{"OfflineOptimal", dpss.PolicyOfflineOptimal, true},
		{"OfflineHorizon", dpss.PolicyOfflineHorizon, true},
	}
	rows, err := suite.Map(cfg, len(entries), func(i int) ([]string, error) {
		en := entries[i]
		if en.offline && cfg.SkipOffline {
			return nil, nil
		}
		rep, err := simulate(en.policy, opts, traces)
		if err != nil {
			return nil, err
		}
		return []string{en.label, fmtUSD(rep.TimeAvgCostUSD), fmtF(rep.MeanDelaySlots),
			fmtF(rep.UnservedMWh), fmt.Sprintf("%d", rep.Slots)}, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "ANNUAL-1 — year-long comparison (8760 hourly slots)",
		Note: "Days=365 forced; V=1, T=24, Bmax=15 min; the OfflineHorizon row is one\n" +
			"8760-slot LP on the sparse revised simplex; expected: the annual horizon\n" +
			"LP lower-bounds the per-interval offline decomposition.",
		Columns: []string{"policy", "cost $/slot", "mean delay", "unserved MWh", "slots"},
	}
	for _, r := range rows {
		if r != nil {
			t.Rows = append(t.Rows, r)
		}
	}
	return t, nil
}
