// Package telemetry is the live-grid feedback loop: each tick the live engine
// reads its meters straight into a collector, which aggregates the readings
// into per-shard time series; a deviation detector compares measured against
// negotiated profiles, and the engine reacts to sustained drift by
// re-negotiating only the breaching shards through the cluster tier — the
// pattern of feedback agents streaming health measurements to a load balancer
// that adjusts weights online, brought to the agent grid. Reading a meter is
// the agents' interaction with the world, not with each other (Section 5 of
// the paper keeps the two apart), so no bus or agent runtime carries it.
//
// The paper's negotiation (Brazier et al., ICDCS '98) balances a *predicted*
// profile once per period; this package closes the loop for continuous
// operation, where actual consumption drifts from the agreement and the
// system must notice and react without re-running the fleet negotiation.
package telemetry

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"loadbalance/internal/agent"
	"loadbalance/internal/message"
	"loadbalance/internal/prediction"
	"loadbalance/internal/ring"
)

// Errors reported by the package.
var (
	ErrBadConfig = errors.New("telemetry: invalid configuration")
	ErrNoData    = errors.New("telemetry: no data")
)

// CollectorConfig parameterises a collector.
type CollectorConfig struct {
	// ShardOf maps every metered customer to its shard index in [0,Shards).
	ShardOf map[string]int
	// Shards is the shard count.
	Shards int
	// RingTicks is the per-shard time-series capacity (how much history the
	// forecasters see); default 64, what the live engine keeps.
	RingTicks int
}

// Collector is the utility-side sink of the metering stream: it ingests
// MeterBatch readings, accumulates each tick's readings into per-shard
// running loads, and maintains a ring-buffer time series per shard that
// prediction estimators forecast from. The live engine ingests and reads on
// its ticking goroutine; the mutex is there for Handler, which ingests on an
// agent's goroutine while WaitTick polls from another.
type Collector struct {
	mu      sync.Mutex
	shardOf map[string]int
	rings   []*ring.Buffer[float64] // per-shard series of closed-tick energies
	// acc accumulates per-shard energy and reading counts for ticks that are
	// still open (readings may arrive interleaved across batches).
	acc      map[int]*tickAcc
	readings int64
	batches  int64
	rejected int64 // readings from unknown customers
}

// tickAcc is one open tick's accumulation.
type tickAcc struct {
	perShard []float64
	readings int
}

// NewCollector validates the configuration and constructs the collector.
func NewCollector(cfg CollectorConfig) (*Collector, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("%w: shard count %d", ErrBadConfig, cfg.Shards)
	}
	if len(cfg.ShardOf) == 0 {
		return nil, fmt.Errorf("%w: no customers", ErrBadConfig)
	}
	if cfg.RingTicks <= 0 {
		cfg.RingTicks = 64
	}
	c := &Collector{
		shardOf: make(map[string]int, len(cfg.ShardOf)),
		rings:   make([]*ring.Buffer[float64], cfg.Shards),
		acc:     make(map[int]*tickAcc),
	}
	for name, s := range cfg.ShardOf {
		if s < 0 || s >= cfg.Shards {
			return nil, fmt.Errorf("%w: customer %q in shard %d of %d", ErrBadConfig, name, s, cfg.Shards)
		}
		c.shardOf[name] = s
	}
	for i := range c.rings {
		c.rings[i] = ring.New[float64](cfg.RingTicks)
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Collector) Shards() int { return len(c.rings) }

// Ingest merges one batch of readings into the open ticks.
func (c *Collector) Ingest(b message.MeterBatch) error {
	if err := b.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.batches++
	for _, r := range b.Readings {
		shard, ok := c.shardOf[r.Customer]
		if !ok {
			c.rejected++
			continue
		}
		acc, ok := c.acc[r.Tick]
		if !ok {
			acc = &tickAcc{perShard: make([]float64, len(c.rings))}
			c.acc[r.Tick] = acc
		}
		acc.perShard[shard] += r.KWh
		acc.readings++
		c.readings++
	}
	return nil
}

// Handler adapts the collector to the agent runtime: MeterBatch envelopes
// are ingested, everything else is ignored (the collector may share a bus
// with negotiation traffic). Its one caller is bench/probes.go.
func (c *Collector) Handler() agent.Handler {
	return agent.HandlerFuncs{
		Message: func(rt *agent.Runtime, env message.Envelope) error {
			if env.Kind != message.KindMeterBatch {
				return nil
			}
			p, err := env.Decode()
			if err != nil {
				return err
			}
			return c.Ingest(p.(message.MeterBatch))
		},
	}
}

// ReadingsAt returns how many readings have arrived for a still-open tick.
// Its one caller outside WaitTick is bench/probes.go.
func (c *Collector) ReadingsAt(tick int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if acc, ok := c.acc[tick]; ok {
		return acc.readings
	}
	return 0
}

// WaitTick blocks until want readings have arrived for the tick or the
// deadline passes — the barrier between publishing a tick over a bus and
// closing it. Its one caller is bench/probes.go; the live engine ingests on
// its own goroutine and has nothing to wait for.
func (c *Collector) WaitTick(tick, want int, deadline time.Duration) error {
	limit := time.Now().Add(deadline)
	for {
		if c.ReadingsAt(tick) >= want {
			return nil
		}
		if time.Now().After(limit) {
			return fmt.Errorf("telemetry: tick %d: %d of %d readings after %v", tick, c.ReadingsAt(tick), want, deadline)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// CloseTick finalises a tick: its per-shard energies are pushed into the
// ring series and returned. Closing an unseen tick pushes zeros (a tick in
// which nothing was measured is a measurement of zero, e.g. a total outage).
func (c *Collector) CloseTick(tick int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	acc, ok := c.acc[tick]
	if !ok {
		acc = &tickAcc{perShard: make([]float64, len(c.rings))}
	}
	delete(c.acc, tick)
	perShard := acc.perShard
	for i, v := range perShard {
		c.rings[i].Push(v)
	}
	return perShard
}

// RestoreTick replays one closed tick into the collector during recovery:
// the per-shard energies enter the ring series and the counters advance as
// if the readings had been ingested.
func (c *Collector) RestoreTick(perShard []float64, readings, batches int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(perShard) != len(c.rings) {
		return fmt.Errorf("%w: restoring %d shards into %d", ErrBadConfig, len(perShard), len(c.rings))
	}
	for i, v := range perShard {
		c.rings[i].Push(v)
	}
	c.readings += readings
	c.batches += batches
	return nil
}

// RestoreState replaces the collector's series and counters with a
// snapshot's — the starting point recovery replays the journal tail onto.
func (c *Collector) RestoreState(series [][]float64, stats CollectorStats) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(series) != len(c.rings) {
		return fmt.Errorf("%w: restoring %d shard series into %d", ErrBadConfig, len(series), len(c.rings))
	}
	for i, s := range series {
		r := ring.New[float64](c.rings[i].Cap())
		for _, v := range s {
			r.Push(v)
		}
		c.rings[i] = r
	}
	c.readings, c.batches, c.rejected = stats.Readings, stats.Batches, stats.Rejected
	return nil
}

// ShardSeries copies shard i's closed-tick series, oldest first — the form
// the prediction package's estimators consume. An empty series is empty, not
// nil: it is marshalled into snapshots and the grid profile.
func (c *Collector) ShardSeries(i int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	series, _ := c.rings[i].Since(0)
	return series
}

// ShardLast returns shard i's newest closed-tick energy without copying the
// series — the O(1) read the metrics snapshot takes every tick.
func (c *Collector) ShardLast(i int) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rings[i]
	if r.Len() == 0 {
		return 0, false
	}
	return r.At(r.Len() - 1), true
}

// ForecastShard feeds shard i's series to a prediction estimator and returns
// the one-tick-ahead forecast of the shard's load.
func (c *Collector) ForecastShard(i int, p prediction.Predictor) (float64, error) {
	series := c.ShardSeries(i)
	if len(series) == 0 {
		return 0, ErrNoData
	}
	return p.Predict(series)
}

// CollectorStats is a snapshot of the ingestion counters.
type CollectorStats struct {
	Readings int64
	Batches  int64
	Rejected int64
}

// Stats returns the cumulative ingestion counters.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CollectorStats{Readings: c.readings, Batches: c.batches, Rejected: c.rejected}
}
