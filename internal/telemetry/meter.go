package telemetry

import (
	"fmt"
	"math/rand"
	"sort"

	"loadbalance/internal/bus"
	"loadbalance/internal/message"
)

// Event is an injectable demand disturbance on one meter: between StartTick
// and EndTick (inclusive) the meter's underlying demand is multiplied by
// Factor. Factor > 1 models a load spike (cold snap, EV charging wave),
// Factor 0 an outage. Overlapping events multiply.
type Event struct {
	StartTick int
	EndTick   int
	Factor    float64
}

// validate checks one event.
func (e Event) validate() error {
	if e.StartTick < 0 || e.EndTick < e.StartTick {
		return fmt.Errorf("%w: event ticks [%d,%d]", ErrBadConfig, e.StartTick, e.EndTick)
	}
	if e.Factor < 0 {
		return fmt.Errorf("%w: event factor %v", ErrBadConfig, e.Factor)
	}
	return nil
}

// MeterConfig parameterises one customer meter.
type MeterConfig struct {
	// Customer is the metered customer's name.
	Customer string
	// BaseKWh is the customer's demand per tick before cut-downs and events
	// (its negotiated-window prediction divided over the window's ticks). A
	// per-tick series from a world profile may replace it via Series.
	BaseKWh float64
	// Series optionally replaces the flat BaseKWh with a per-tick baseline
	// (one kWh value per tick); ticks beyond its length wrap around.
	Series []float64
	// Jitter is the relative amplitude of the stochastic measurement noise:
	// each sample is scaled by 1 + Jitter·u with u uniform in [-1,1].
	Jitter float64
	// Seed drives the jitter stream (per meter, so fleets are deterministic
	// under any sampling order).
	Seed int64
	// Events are the demand disturbances to replay.
	Events []Event
}

// Meter samples one customer's actual consumption per live tick: baseline
// demand, scaled by the cut-down the customer currently honours, by any
// active events, and by stochastic jitter. Samples are deterministic for a
// given seed and tick sequence.
type Meter struct {
	cfg     MeterConfig
	rng     *rand.Rand
	cutDown float64
}

// NewMeter validates the configuration and constructs the meter.
func NewMeter(cfg MeterConfig) (*Meter, error) {
	if cfg.Customer == "" {
		return nil, fmt.Errorf("%w: empty customer name", ErrBadConfig)
	}
	if cfg.BaseKWh < 0 || (cfg.BaseKWh == 0 && len(cfg.Series) == 0) {
		return nil, fmt.Errorf("%w: base %v kWh/tick", ErrBadConfig, cfg.BaseKWh)
	}
	if cfg.Jitter < 0 || cfg.Jitter >= 1 {
		return nil, fmt.Errorf("%w: jitter %v out of [0,1)", ErrBadConfig, cfg.Jitter)
	}
	for _, e := range cfg.Events {
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Customer, err)
		}
	}
	return &Meter{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// SetCutDown actuates an awarded cut-down: subsequent samples honour it.
func (m *Meter) SetCutDown(cd float64) {
	if cd < 0 {
		cd = 0
	}
	if cd > 1 {
		cd = 1
	}
	m.cutDown = cd
}

// CutDown returns the currently honoured cut-down.
func (m *Meter) CutDown() float64 { return m.cutDown }

// factorAt multiplies the active events' factors at a tick.
func (m *Meter) factorAt(tick int) float64 {
	f := 1.0
	for _, e := range m.cfg.Events {
		if tick >= e.StartTick && tick <= e.EndTick {
			f *= e.Factor
		}
	}
	return f
}

// baseAt returns the baseline demand for a tick.
func (m *Meter) baseAt(tick int) float64 {
	if len(m.cfg.Series) > 0 {
		return m.cfg.Series[tick%len(m.cfg.Series)]
	}
	return m.cfg.BaseKWh
}

// Sample measures the tick's actual consumption. Consuming a sample advances
// the meter's jitter stream, so each tick must be sampled exactly once.
func (m *Meter) Sample(tick int) message.MeterReading {
	jit := 1.0
	if m.cfg.Jitter > 0 {
		jit = 1 + m.cfg.Jitter*(2*m.rng.Float64()-1)
	}
	kwh := m.baseAt(tick) * m.factorAt(tick) * (1 - m.cutDown) * jit
	if kwh < 0 {
		kwh = 0
	}
	return message.MeterReading{Customer: m.cfg.Customer, Tick: tick, KWh: kwh}
}

// SkipTicks advances the jitter stream past n already-sampled ticks without
// producing readings — how a recovering grid fast-forwards its meters so the
// post-recovery samples are bit-identical to an uninterrupted run's. It
// draws exactly what Sample would have drawn.
func (m *Meter) SkipTicks(n int) {
	if m.cfg.Jitter <= 0 {
		return
	}
	for i := 0; i < n; i++ {
		m.rng.Float64()
	}
}

// defaultBatchSize bounds readings per batch — the live engine's batch size:
// a published envelope stays a few KB, and a tick is fleet_size/batch
// batches rather than one per customer.
const defaultBatchSize = 128

// Fleet is the set of meters attached to one customer fleet, in name order:
// a roster's order, so a roster index is a meter's index.
type Fleet struct {
	meters    []*Meter
	batchSize int
}

// NewFleet assembles meters into a fleet. batchSize ≤ 0 uses the default.
func NewFleet(meters []*Meter, batchSize int) (*Fleet, error) {
	if len(meters) == 0 {
		return nil, fmt.Errorf("%w: empty fleet", ErrBadConfig)
	}
	if batchSize <= 0 {
		batchSize = defaultBatchSize
	}
	// Deterministic sampling order regardless of construction order.
	sort.Slice(meters, func(i, j int) bool { return meters[i].cfg.Customer < meters[j].cfg.Customer })
	for i := 1; i < len(meters); i++ {
		if meters[i].cfg.Customer == meters[i-1].cfg.Customer {
			return nil, fmt.Errorf("%w: duplicate meter %q", ErrBadConfig, meters[i].cfg.Customer)
		}
	}
	return &Fleet{meters: meters, batchSize: batchSize}, nil
}

// Size returns the number of meters.
func (f *Fleet) Size() int { return len(f.meters) }

// SkipTicks fast-forwards every meter's jitter stream past n sampled ticks.
func (f *Fleet) SkipTicks(n int) {
	for _, m := range f.meters {
		m.SkipTicks(n)
	}
}

// Actuate pushes awarded cut-downs into the meters: cutDowns[i] into the
// i-th meter in name order.
func (f *Fleet) Actuate(cutDowns []float64) {
	for i, m := range f.meters {
		m.SetCutDown(cutDowns[i])
	}
}

// SampleTick measures every meter once and packs the readings into batches,
// which share one backing array.
func (f *Fleet) SampleTick(tick int) []message.MeterBatch {
	readings := make([]message.MeterReading, len(f.meters))
	for i, m := range f.meters {
		readings[i] = m.Sample(tick)
	}
	batches := make([]message.MeterBatch, 0, (len(readings)+f.batchSize-1)/f.batchSize)
	for start := 0; start < len(readings); start += f.batchSize {
		end := min(start+f.batchSize, len(readings))
		batches = append(batches, message.MeterBatch{Tick: tick, Readings: readings[start:end:end]})
	}
	return batches
}

// PublishTick samples the fleet and streams the batches over the bus to a
// collector agent. It returns the number of readings published. Its one
// caller is bench/probes.go; the live engine ingests SampleTick's batches
// directly.
func (f *Fleet) PublishTick(b bus.Bus, from, to, session string, tick int) (int, error) {
	published := 0
	for _, batch := range f.SampleTick(tick) {
		env, err := message.NewEnvelope(from, to, session, batch)
		if err != nil {
			return published, err
		}
		if err := b.Send(env); err != nil {
			return published, err
		}
		published += len(batch.Readings)
	}
	return published, nil
}
