package telemetry

import (
	"fmt"
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
	// Seed keys the jitter: a tick's draw is a function of the seed and the
	// tick alone, so a reading does not depend on what was sampled before.
	Seed int64
	// Events are the demand disturbances to replay.
	Events []Event
}

// Meter samples one customer's actual consumption per live tick: baseline
// demand, scaled by the cut-down the customer honours, by any active events,
// and by stochastic jitter. A reading is a function of the configuration,
// the tick and the cut-down alone: the meter keeps nothing between samples,
// so a tick reads the same whenever, and however often, it is sampled.
type Meter struct {
	cfg MeterConfig
	key uint64 // the seed, mixed once: what the jitter draws are keyed by
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
	return &Meter{cfg: cfg, key: mix64(uint64(cfg.Seed))}, nil
}

// golden is SplitMix64's increment, 2^64/φ.
const golden = 0x9e3779b97f4a7c15

// mix64 is SplitMix64's finaliser (Steele, Lea and Flood, OOPSLA'14).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// draw is the meter's uniform in [0, 1) at a tick: the (tick+1)-th output of
// a SplitMix64 generator started at the meter's key, computed from the tick
// as a counter (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
// SC'11) rather than by stepping a stream.
func (m *Meter) draw(tick int) float64 {
	return float64(mix64(m.key+uint64(tick+1)*golden)>>11) / (1 << 53)
}

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

// Sample measures the tick's actual consumption while the customer honours
// cutDown, clamped to [0, 1].
func (m *Meter) Sample(tick int, cutDown float64) message.MeterReading {
	cutDown = min(max(cutDown, 0), 1)
	jit := 1.0
	if m.cfg.Jitter > 0 {
		jit = 1 + m.cfg.Jitter*(2*m.draw(tick)-1)
	}
	kwh := m.baseAt(tick) * m.factorAt(tick) * (1 - cutDown) * jit
	if kwh < 0 {
		kwh = 0
	}
	return message.MeterReading{Customer: m.cfg.Customer, Tick: tick, KWh: kwh}
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
	// batches is SampleTick's: one readings array in batchSize runs,
	// refilled every tick.
	batches []message.MeterBatch
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
	f := &Fleet{meters: meters, batchSize: batchSize}
	f.batches = f.newBatches()
	return f, nil
}

// Size returns the number of meters.
func (f *Fleet) Size() int { return len(f.meters) }

// newBatches allocates one tick's readings, as batches of at most batchSize
// readings over one backing array.
func (f *Fleet) newBatches() []message.MeterBatch {
	readings := make([]message.MeterReading, len(f.meters))
	batches := make([]message.MeterBatch, 0, (len(readings)+f.batchSize-1)/f.batchSize)
	for start := 0; start < len(readings); start += f.batchSize {
		end := min(start+f.batchSize, len(readings))
		batches = append(batches, message.MeterBatch{Readings: readings[start:end:end]})
	}
	return batches
}

// read fills batches, as newBatches made them, with every meter's reading at
// tick: meter i honours cutDowns[i], or nothing when cutDowns is nil.
func (f *Fleet) read(batches []message.MeterBatch, tick int, cutDowns []float64) []message.MeterBatch {
	for b := range batches {
		batches[b].Tick = tick
		for r := range batches[b].Readings {
			i, cd := b*f.batchSize+r, 0.0
			if cutDowns != nil {
				cd = cutDowns[i]
			}
			batches[b].Readings[r] = f.meters[i].Sample(tick, cd)
		}
	}
	return batches
}

// SampleTick measures every meter once, meter i under cutDowns[i] — the
// standing agreement by roster index — and packs the readings into batches.
// The batches are the fleet's own: the next SampleTick overwrites them, so
// a caller keeps nothing of them.
func (f *Fleet) SampleTick(tick int, cutDowns []float64) []message.MeterBatch {
	return f.read(f.batches, tick, cutDowns)
}

// PublishTick samples the fleet, honouring no cut-down, and streams the
// batches over the bus to a collector agent. It returns the number of
// readings published. Each tick's readings are a fresh array, since the
// collector reads them on its own goroutine. Its one caller is
// bench/probes.go; the live engine ingests SampleTick's batches directly.
func (f *Fleet) PublishTick(b bus.Bus, from, to, session string, tick int) (int, error) {
	published := 0
	for _, batch := range f.read(f.newBatches(), tick, nil) {
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
