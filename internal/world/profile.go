package world

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"loadbalance/internal/units"
)

// Sample is one point of a load profile: average power over a slot.
type Sample struct {
	Interval units.Interval
	Power    units.Power
}

// Energy returns the energy consumed during the sample's slot.
func (s Sample) Energy() units.Energy {
	return s.Power.For(s.Interval.Duration())
}

// Profile is a time series of load samples over contiguous slots — the
// "demand curve" of Figure 1.
type Profile struct {
	Samples []Sample
}

// GenerateProfile samples a population's aggregate demand over an interval
// at the given resolution. This regenerates the Figure 1 demand curve.
func GenerateProfile(p *Population, iv units.Interval, resolution time.Duration) (*Profile, error) {
	if resolution <= 0 {
		return nil, fmt.Errorf("world: resolution %v must be positive", resolution)
	}
	n := int(iv.Duration() / resolution)
	if n == 0 {
		return nil, fmt.Errorf("world: interval %v shorter than resolution %v", iv.Duration(), resolution)
	}
	slots, err := iv.Split(n)
	if err != nil {
		return nil, err
	}
	prof := &Profile{Samples: make([]Sample, 0, len(slots))}
	for _, slot := range slots {
		mid := slot.Start.Add(slot.Duration() / 2)
		prof.Samples = append(prof.Samples, Sample{
			Interval: slot,
			Power:    p.DemandAt(mid),
		})
	}
	return prof, nil
}

// TotalEnergy returns the energy consumed over the whole profile.
func (p *Profile) TotalEnergy() units.Energy {
	var total units.Energy
	for _, s := range p.Samples {
		total = total.Add(s.Energy())
	}
	return total
}

// Peak returns the sample with the highest power. It returns false when the
// profile is empty.
func (p *Profile) Peak() (Sample, bool) {
	if len(p.Samples) == 0 {
		return Sample{}, false
	}
	best := p.Samples[0]
	for _, s := range p.Samples[1:] {
		if s.Power > best.Power {
			best = s
		}
	}
	return best, true
}

// Mean returns the average power over the profile (0 for empty profiles).
func (p *Profile) Mean() units.Power {
	if len(p.Samples) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range p.Samples {
		total += s.Power.KWs()
	}
	return units.Power(total / float64(len(p.Samples)))
}

// PeakToMean returns the peak/mean ratio — the quantity load management
// tries to shrink.
func (p *Profile) PeakToMean() float64 {
	peak, ok := p.Peak()
	if !ok {
		return 0
	}
	mean := p.Mean()
	if mean == 0 {
		return 0
	}
	return peak.Power.KWs() / mean.KWs()
}

// LocalPeaks returns the indices of samples that are strict local maxima
// exceeding threshold × mean. Figure 1's two-peak shape makes this ≥ 2 for a
// residential day at threshold ≈ 1.1.
func (p *Profile) LocalPeaks(threshold float64) []int {
	mean := p.Mean().KWs()
	var out []int
	for i := 1; i < len(p.Samples)-1; i++ {
		v := p.Samples[i].Power.KWs()
		if v > p.Samples[i-1].Power.KWs() && v >= p.Samples[i+1].Power.KWs() && v > threshold*mean {
			out = append(out, i)
		}
	}
	return out
}

// EnergyIn returns the energy the profile records inside the query interval,
// counting only whole slots fully contained in it.
func (p *Profile) EnergyIn(iv units.Interval) units.Energy {
	var total units.Energy
	for _, s := range p.Samples {
		if !s.Interval.Start.Before(iv.Start) && !s.Interval.End.After(iv.End) {
			total = total.Add(s.Energy())
		}
	}
	return total
}

// CSV renders the profile as "start,kw" rows for the experiment harness.
func (p *Profile) CSV() string {
	var b strings.Builder
	b.WriteString("slot_start,kw\n")
	for _, s := range p.Samples {
		fmt.Fprintf(&b, "%s,%.4f\n", s.Interval.Start.Format(time.RFC3339), s.Power.KWs())
	}
	return b.String()
}

// ASCII renders a coarse vertical bar chart of the profile, one row per
// sample bucket, for terminal display of the Figure 1 curve.
func (p *Profile) ASCII(width int) string {
	if width <= 0 {
		width = 60
	}
	peak, ok := p.Peak()
	if !ok || peak.Power == 0 {
		return "(empty profile)\n"
	}
	var b strings.Builder
	for _, s := range p.Samples {
		bars := int(s.Power.KWs() / peak.Power.KWs() * float64(width))
		fmt.Fprintf(&b, "%s |%s %.1f kW\n",
			s.Interval.Start.Format("15:04"), strings.Repeat("#", bars), s.Power.KWs())
	}
	return b.String()
}

// Meter accumulates actual consumption readings per customer, the
// consumption information the UA's maintenance of world information stores.
type Meter struct {
	readings map[string][]Sample
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{readings: make(map[string][]Sample)}
}

// Record appends a consumption sample for a customer.
func (m *Meter) Record(customer string, s Sample) {
	m.readings[customer] = append(m.readings[customer], s)
}

// EnergyOf returns a customer's total recorded energy within an interval.
func (m *Meter) EnergyOf(customer string, iv units.Interval) units.Energy {
	var total units.Energy
	for _, s := range m.readings[customer] {
		if !s.Interval.Start.Before(iv.Start) && !s.Interval.End.After(iv.End) {
			total = total.Add(s.Energy())
		}
	}
	return total
}

// Customers returns the customer IDs with recorded readings, sorted.
func (m *Meter) Customers() []string {
	out := make([]string, 0, len(m.readings))
	for c := range m.readings {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
