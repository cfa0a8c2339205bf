// Package solar generates synthetic on-site solar production traces.
//
// The paper drives its evaluation with the NREL MIDC meteorological trace
// for the central United States, January 1–31, 2012. That dataset is not
// redistributable here, so this package substitutes a physically grounded
// generator: a clear-sky irradiance model from solar geometry (declination,
// hour angle, elevation, and an air-mass transmission term) modulated by a
// two-state Markov weather chain with AR(1) cloud attenuation. The
// substitute reproduces the trace properties SmartDPSS is sensitive to —
// strict day/night intermittency, short winter days, day-to-day variability
// and hour-scale autocorrelation.
//
// The package owns the irradiance model and its weather chain.
// internal/engine is its sole consumer: trace generation scales the
// output by the configured capacity and merges it with wind into the
// renewable series of the trace.Set that everything downstream reads.
package solar

import (
	"errors"
	"math"
	"math/rand"

	"github.com/smartdpss/smartdpss/internal/trace"
)

// Config parameterizes the generator. Zero values are replaced by
// Defaults() values in Generate.
type Config struct {
	// LatitudeDeg is the site latitude in degrees (positive north).
	LatitudeDeg float64
	// StartDayOfYear is the first simulated day (Jan 1 = 1).
	StartDayOfYear int
	// Days is the number of simulated days.
	Days int
	// SlotMinutes is the trace resolution.
	SlotMinutes int
	// CapacityMW is the plant nameplate capacity: output at 1000 W/m²
	// irradiance.
	CapacityMW float64
	// PerformanceRatio lumps inverter/temperature/soiling losses (0..1].
	PerformanceRatio float64
	// PClearToCloudy and PCloudyToClear are the per-hour Markov transition
	// probabilities of the weather chain.
	PClearToCloudy float64
	PCloudyToClear float64
	// CloudyAttenuation is the mean output fraction under cloud cover.
	CloudyAttenuation float64
	// Seed drives the deterministic random source.
	Seed int64
}

// Defaults returns the configuration used for the paper-like January
// central-US scenario (latitude ≈ 39°N, 1-hour slots, 31 days).
func Defaults() Config {
	return Config{
		LatitudeDeg:       39.0,
		StartDayOfYear:    1,
		Days:              31,
		SlotMinutes:       60,
		CapacityMW:        1.0,
		PerformanceRatio:  0.85,
		PClearToCloudy:    0.08,
		PCloudyToClear:    0.12,
		CloudyAttenuation: 0.30,
		Seed:              1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Days <= 0:
		return errors.New("solar: Days must be positive")
	case c.SlotMinutes <= 0 || c.SlotMinutes > 24*60:
		return errors.New("solar: SlotMinutes out of range")
	case c.CapacityMW < 0:
		return errors.New("solar: negative capacity")
	case c.PerformanceRatio <= 0 || c.PerformanceRatio > 1:
		return errors.New("solar: PerformanceRatio must be in (0, 1]")
	case c.PClearToCloudy < 0 || c.PClearToCloudy > 1 ||
		c.PCloudyToClear < 0 || c.PCloudyToClear > 1:
		return errors.New("solar: Markov probabilities must be in [0, 1]")
	case c.CloudyAttenuation < 0 || c.CloudyAttenuation > 1:
		return errors.New("solar: CloudyAttenuation must be in [0, 1]")
	case c.LatitudeDeg < -90 || c.LatitudeDeg > 90:
		return errors.New("solar: latitude out of range")
	case c.StartDayOfYear < 1 || c.StartDayOfYear > 366:
		return errors.New("solar: StartDayOfYear out of range")
	}
	return nil
}

// Generate produces the production series in MWh per slot.
func Generate(c Config) (*trace.Series, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	slotsPerDay := 24 * 60 / c.SlotMinutes
	n := c.Days * slotsPerDay
	out := trace.New("solar", "MWh", c.SlotMinutes, n)

	slotHours := float64(c.SlotMinutes) / 60.0
	cloudy := rng.Float64() < 0.4 // initial weather state
	atten := 1.0                  // AR(1) attenuation level

	for i := 0; i < n; i++ {
		day := c.StartDayOfYear + i/slotsPerDay
		hour := (float64(i%slotsPerDay) + 0.5) * slotHours // slot midpoint

		// Weather chain steps once per slot, scaled to per-hour rates.
		pFlip := c.PClearToCloudy
		if cloudy {
			pFlip = c.PCloudyToClear
		}
		if rng.Float64() < pFlip*slotHours {
			cloudy = !cloudy
		}
		target := 1.0
		if cloudy {
			target = c.CloudyAttenuation
		}
		// Mean-reverting attenuation with small noise, bounded to [0.05, 1].
		atten += 0.45*(target-atten) + 0.05*rng.NormFloat64()
		atten = math.Min(1, math.Max(0.05, atten))

		irr := clearSkyIrradiance(c.LatitudeDeg, day, hour)
		powerMW := c.CapacityMW * c.PerformanceRatio * (irr / 1000.0) * atten
		out.Values[i] = math.Max(0, powerMW*slotHours)
	}
	return out, nil
}

// clearSkyIrradiance returns the clear-sky global horizontal irradiance in
// W/m² for the given latitude (degrees), day of year and local solar hour.
func clearSkyIrradiance(latDeg float64, dayOfYear int, hour float64) float64 {
	const solarConstant = 1361.0 // W/m²

	latRad := latDeg * math.Pi / 180
	// Cooper's declination formula.
	declRad := 23.45 * math.Pi / 180 * math.Sin(2*math.Pi*float64(284+dayOfYear)/365)
	hourAngle := (hour - 12) * 15 * math.Pi / 180

	sinElev := math.Sin(latRad)*math.Sin(declRad) +
		math.Cos(latRad)*math.Cos(declRad)*math.Cos(hourAngle)
	if sinElev <= 0 {
		return 0 // sun below the horizon
	}
	// Kasten–Young style air-mass attenuation, simplified.
	airMass := 1 / math.Max(sinElev, 0.01)
	transmission := math.Pow(0.7, math.Pow(airMass, 0.678))
	return solarConstant * sinElev * transmission
}
