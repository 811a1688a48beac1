package telemetry

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"loadbalance/internal/agent"
	"loadbalance/internal/bus"
	"loadbalance/internal/message"
	"loadbalance/internal/prediction"
)

// Names the tests that publish over a bus give the meters and the collector.
const (
	collectorName = "collector"
	meteringName  = "metering"
)

func TestMeterDeterministicAndEventful(t *testing.T) {
	mk := func() *Meter {
		m, err := NewMeter(MeterConfig{
			Customer: "c1", BaseKWh: 2, Jitter: 0.05, Seed: 7,
			Events: []Event{{StartTick: 3, EndTick: 4, Factor: 2}, {StartTick: 6, EndTick: 6, Factor: 0}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := mk(), mk()
	for tick := 0; tick < 8; tick++ {
		ra, rb := a.Sample(tick, 0), b.Sample(tick, 0)
		if ra != rb {
			t.Fatalf("tick %d: same seed diverged: %v vs %v", tick, ra, rb)
		}
		switch {
		case tick == 3 || tick == 4:
			if ra.KWh < 2*2*0.95 || ra.KWh > 2*2*1.05 {
				t.Fatalf("spike tick %d = %v kWh, want ≈4", tick, ra.KWh)
			}
		case tick == 6:
			if ra.KWh != 0 {
				t.Fatalf("outage tick = %v kWh, want 0", ra.KWh)
			}
		default:
			if ra.KWh < 2*0.95 || ra.KWh > 2*1.05 {
				t.Fatalf("normal tick %d = %v kWh, want ≈2", tick, ra.KWh)
			}
		}
	}
	// A honoured cut-down scales the sample.
	if r := a.Sample(10, 0.5); r.KWh < 0.95 || r.KWh > 1.05 {
		t.Fatalf("cut-down sample = %v kWh, want ≈1", r.KWh)
	}
}

// TestMeterReadingIsAFunctionOfTheTick holds a meter stateless: a fresh
// meter reads at tick t what a meter that has sampled ticks 0 … t−1 reads
// there, and every jitter factor stays within the configured amplitude.
func TestMeterReadingIsAFunctionOfTheTick(t *testing.T) {
	const jitter = 0.05
	cfg := MeterConfig{Customer: "c1", BaseKWh: 1, Jitter: jitter, Seed: 7}
	running, err := NewMeter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for tick := 0; tick <= 4096; tick++ {
		r := running.Sample(tick, 0)
		// BaseKWh 1 and no cut-down: the reading is the jitter factor.
		if r.KWh < 1-jitter || r.KWh > 1+jitter {
			t.Fatalf("tick %d: jitter factor %v outside [%v, %v]", tick, r.KWh, 1-jitter, 1+jitter)
		}
		lo, hi = min(lo, r.KWh), max(hi, r.KWh)
		switch tick {
		case 1, 2, 3, 17, 500, 4096:
			fresh, err := NewMeter(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fresh.Sample(tick, 0); got != r {
				t.Fatalf("tick %d: a fresh meter reads %v, the running meter %v", tick, got, r)
			}
		}
	}
	// 4 097 draws spread over the whole band, not a constant.
	if lo > 1-0.9*jitter || hi < 1+0.9*jitter {
		t.Fatalf("jitter factors span [%v, %v], want most of [%v, %v]", lo, hi, 1-jitter, 1+jitter)
	}
}

func TestMeterSeriesBaseline(t *testing.T) {
	m, err := NewMeter(MeterConfig{Customer: "c1", Series: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for tick, want := range []float64{1, 2, 3, 1, 2} {
		if got := m.Sample(tick, 0).KWh; got != want {
			t.Fatalf("tick %d = %v, want %v (series wraps)", tick, got, want)
		}
	}
}

func TestMeterConfigValidation(t *testing.T) {
	cases := []MeterConfig{
		{Customer: "", BaseKWh: 1},
		{Customer: "c", BaseKWh: -1},
		{Customer: "c"},
		{Customer: "c", BaseKWh: 1, Jitter: 1},
		{Customer: "c", BaseKWh: 1, Events: []Event{{StartTick: 2, EndTick: 1, Factor: 1}}},
		{Customer: "c", BaseKWh: 1, Events: []Event{{Factor: -1}}},
	}
	for i, cfg := range cases {
		if _, err := NewMeter(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestFleetBatchesAndPublishes(t *testing.T) {
	meters := make([]*Meter, 0, 5)
	for _, name := range []string{"c3", "c1", "c2", "c5", "c4"} {
		m, err := NewMeter(MeterConfig{Customer: name, BaseKWh: 1})
		if err != nil {
			t.Fatal(err)
		}
		meters = append(meters, m)
	}
	fleet, err := NewFleet(meters, 2)
	if err != nil {
		t.Fatal(err)
	}
	batches := fleet.SampleTick(0, nil)
	if len(batches) != 3 {
		t.Fatalf("batches = %d, want 3 (5 meters, batch size 2)", len(batches))
	}
	if got := batches[0].Readings[0].Customer; got != "c1" {
		t.Fatalf("first reading from %q, want c1 (sorted order)", got)
	}

	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	col, err := NewCollector(CollectorConfig{
		ShardOf: map[string]int{"c1": 0, "c2": 0, "c3": 1, "c4": 1, "c5": 1},
		Shards:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	inbox, err := b.Register(collectorName, 16)
	if err != nil {
		t.Fatal(err)
	}
	n, err := fleet.PublishTick(b, meteringName, collectorName, "s", 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("published %d readings, want 5", n)
	}
	for i := 0; i < 3; i++ {
		env := <-inbox
		p, err := env.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Ingest(p.(message.MeterBatch)); err != nil {
			t.Fatal(err)
		}
	}
	per := col.CloseTick(1)
	if math.Abs(per[0]-2) > 1e-9 || math.Abs(per[1]-3) > 1e-9 {
		t.Fatalf("per-shard = %v, want [2 3]", per)
	}
}

// TestPublishedBatchesAreSharedReadOnly runs under -race: the collector's
// goroutine ingests the very MeterBatch values PublishTick sampled (an
// in-process envelope carries its payload, it does not copy it) while the
// publisher samples the next tick. Fifty ticks must each close on exactly the
// energy their own meters read.
func TestPublishedBatchesAreSharedReadOnly(t *testing.T) {
	const customers, ticks = 40, 50
	meters := make([]*Meter, customers)
	shardOf := make(map[string]int, customers)
	for i := range meters {
		name := fmt.Sprintf("c%02d", i)
		m, err := NewMeter(MeterConfig{Customer: name, Series: []float64{1, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		meters[i], shardOf[name] = m, i%2
	}
	fleet, err := NewFleet(meters, 8)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(CollectorConfig{ShardOf: shardOf, Shards: 2, RingTicks: ticks})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rt, err := agent.Start(collectorName, b, col.Handler(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	for tick := 0; tick < ticks; tick++ {
		if _, err := fleet.PublishTick(b, meteringName, collectorName, "s", tick); err != nil {
			t.Fatal(err)
		}
		if tick == 0 {
			continue
		}
		// Close the previous tick while this one is in flight.
		if err := col.WaitTick(tick-1, customers, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		want := float64(customers/2) * []float64{1, 2, 3}[(tick-1)%3]
		if per := col.CloseTick(tick - 1); per[0] != want || per[1] != want {
			t.Fatalf("tick %d closed on %v, want %v per shard", tick-1, per, want)
		}
	}
	if errs := rt.Errors(); len(errs) != 0 {
		t.Fatalf("collector errors: %v", errs)
	}
}

func TestCollectorRingsAndForecast(t *testing.T) {
	col, err := NewCollector(CollectorConfig{ShardOf: map[string]int{"a": 0}, Shards: 1, RingTicks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 3; tick++ {
		if err := col.Ingest(message.MeterBatch{Tick: tick, Readings: []message.MeterReading{
			{Customer: "a", Tick: tick, KWh: float64(tick + 1)},
			{Customer: "ghost", Tick: tick, KWh: 99}, // unknown: counted as rejected
		}}); err != nil {
			t.Fatal(err)
		}
		col.CloseTick(tick)
	}
	series := col.ShardSeries(0)
	if len(series) != 3 || series[2] != 3 {
		t.Fatalf("series = %v", series)
	}
	got, err := col.ForecastShard(0, prediction.MovingAverage{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("forecast = %v, want 2.5", got)
	}
	st := col.Stats()
	if st.Readings != 3 || st.Batches != 3 || st.Rejected != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCollectorWaitTick(t *testing.T) {
	col, err := NewCollector(CollectorConfig{ShardOf: map[string]int{"a": 0}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.WaitTick(0, 1, 5*time.Millisecond); err == nil {
		t.Fatal("want deadline error with no readings")
	}
	if err := col.Ingest(message.MeterBatch{Tick: 0, Readings: []message.MeterReading{{Customer: "a", KWh: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := col.WaitTick(0, 1, time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestDeviationDetectorHysteresis(t *testing.T) {
	d, err := NewDeviationDetector(2, DeviationConfig{AbsKWh: 0.1, Rel: 0.2, BreachTicks: 2, ClearTicks: 2})
	if err != nil {
		t.Fatal(err)
	}
	// One out-of-threshold tick never fires.
	if d.Observe(0, 2, 1) {
		t.Fatal("fired on first deviating tick despite BreachTicks=2")
	}
	// An in-threshold tick resets the streak.
	if d.Observe(0, 1.05, 1) || d.Observe(0, 2, 1) {
		t.Fatal("streak should have reset")
	}
	// Two consecutive deviating ticks fire exactly once.
	if !d.Observe(0, 2, 1) {
		t.Fatal("want breach on second consecutive deviating tick")
	}
	if !d.Breached(0) {
		t.Fatal("breach not latched")
	}
	if d.Observe(0, 2, 1) {
		t.Fatal("latched breach fired again")
	}
	// The other shard is independent.
	if d.Breached(1) {
		t.Fatal("shard 1 never deviated")
	}
	// ClearTicks in-threshold ticks re-arm without a reset.
	d.Observe(0, 1, 1)
	d.Observe(0, 1, 1)
	if d.Breached(0) {
		t.Fatal("breach should have cleared after ClearTicks")
	}
	// Reset clears immediately.
	d.Observe(1, 5, 1)
	d.Observe(1, 5, 1)
	if !d.Breached(1) {
		t.Fatal("shard 1 should be breached")
	}
	d.Reset(1)
	if d.Breached(1) {
		t.Fatal("reset did not clear")
	}
}

func TestDeviationSignificance(t *testing.T) {
	d, err := NewDeviationDetector(1, DeviationConfig{AbsKWh: 0.5, Rel: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Significant(1.3, 1) {
		t.Fatal("0.3 deviation under the 0.5 kWh absolute floor must be insignificant")
	}
	if d.Significant(10.8, 10) {
		t.Fatal("8% deviation under the 10% relative floor must be insignificant")
	}
	if !d.Significant(12, 10) {
		t.Fatal("20% / 2 kWh deviation must be significant")
	}
	if !d.Significant(1, 0) {
		t.Fatal("deviation against a zero expectation is judged on the absolute floor alone")
	}
}

func TestDeviationConfigValidation(t *testing.T) {
	if _, err := NewDeviationDetector(0, DeviationConfig{Rel: 0.1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("shards=0 err = %v", err)
	}
	if _, err := NewDeviationDetector(1, DeviationConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("all-zero thresholds err = %v", err)
	}
	if _, err := NewDeviationDetector(1, DeviationConfig{AbsKWh: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative abs err = %v", err)
	}
}

func TestMeterBatchRoundTripOnBus(t *testing.T) {
	batch := message.MeterBatch{Tick: 3, Readings: []message.MeterReading{
		{Customer: "c1", Tick: 3, KWh: 1.25},
	}}
	env, err := message.NewEnvelope("metering", "collector", "s", batch)
	if err != nil {
		t.Fatal(err)
	}
	data, err := env.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := message.UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if back, err = back.Validated(); err != nil {
		t.Fatal(err)
	}
	p, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	got := p.(message.MeterBatch)
	if got.Tick != 3 || len(got.Readings) != 1 || got.Readings[0] != batch.Readings[0] {
		t.Fatalf("round trip = %+v", got)
	}
}
