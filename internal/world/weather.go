// Package world simulates the External World of the paper: weather
// conditions and domestic electricity consumption. The Utility Agent's world
// interaction management task acquires "(1) general information about the
// external world itself, for example weather conditions, and (2) information
// about electricity consumption" (Section 5.1.4); this package is the source
// of both.
//
// The paper's prototype consumed Swedish utility field data, which is not
// available; the substitution is a deterministic, seedable
// simulator of domestic demand that reproduces the canonical two-peak daily
// demand curve of Figure 1. Every stochastic choice flows from an injected
// seed, so experiments are reproducible bit-for-bit.
package world

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Weather describes the conditions the Utility Agent acquires from the
// external world at a given instant.
type Weather struct {
	At time.Time
	// TemperatureC is the outdoor temperature in degrees Celsius.
	TemperatureC float64
	// CloudCover in [0,1] drives lighting demand.
	CloudCover float64
	// WindSpeedMS in m/s increases heat loss (wind chill on buildings).
	WindSpeedMS float64
}

// WeatherModel generates deterministic weather for a Nordic-style climate:
// cold winters, mild summers, a diurnal temperature swing, and weather
// "fronts" that evolve slowly day to day.
type WeatherModel struct {
	seed int64
	// MeanAnnualC is the annual mean temperature.
	MeanAnnualC float64
	// SeasonalSwingC is the summer/winter amplitude.
	SeasonalSwingC float64
	// DiurnalSwingC is the day/night amplitude.
	DiurnalSwingC float64
}

// NewWeatherModel returns a weather model with Karlskrona-like defaults.
func NewWeatherModel(seed int64) *WeatherModel {
	return &WeatherModel{
		seed:           seed,
		MeanAnnualC:    7.5,
		SeasonalSwingC: 10,
		DiurnalSwingC:  4,
	}
}

// At returns the weather at an instant. The same instant always yields the
// same weather for the same seed.
func (m *WeatherModel) At(t time.Time) Weather {
	yearFrac := float64(t.YearDay()-1) / 365
	hourFrac := (float64(t.Hour()) + float64(t.Minute())/60) / 24

	// Coldest around mid-January (yearFrac ~ 0.04), warmest mid-July.
	seasonal := -m.SeasonalSwingC * math.Cos(2*math.Pi*(yearFrac-0.04))
	// Coldest just before dawn (~05:00), warmest mid-afternoon (~15:00).
	diurnal := -m.DiurnalSwingC * math.Cos(2*math.Pi*(hourFrac-5.0/24)*24/20)

	dayRng := m.dayRand(t)
	front := dayRng.NormFloat64() * 3 // day-scale weather front
	cloud := clamp01(0.5 + 0.4*dayRng.NormFloat64())
	wind := math.Abs(dayRng.NormFloat64()) * 4

	return Weather{
		At:           t,
		TemperatureC: m.MeanAnnualC + seasonal + diurnal + front,
		CloudCover:   cloud,
		WindSpeedMS:  wind,
	}
}

// dayRand returns the deterministic per-day random source.
func (m *WeatherModel) dayRand(t time.Time) *rand.Rand {
	y, mo, d := t.Date()
	dayKey := int64(y)*10000 + int64(mo)*100 + int64(d)
	return rand.New(rand.NewSource(m.seed ^ dayKey*0x9E3779B9))
}

// HeatingDegree returns the heating demand driver: how far the effective
// (wind-chilled) temperature sits below the 17 °C heating threshold, in
// degrees, floored at zero.
func (w Weather) HeatingDegree() float64 {
	effective := w.TemperatureC - 0.3*w.WindSpeedMS
	const threshold = 17
	if effective >= threshold {
		return 0
	}
	return threshold - effective
}

// String renders the weather compactly.
func (w Weather) String() string {
	return fmt.Sprintf("%.1f°C cloud=%.2f wind=%.1fm/s", w.TemperatureC, w.CloudCover, w.WindSpeedMS)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
