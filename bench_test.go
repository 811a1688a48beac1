package loadbalance_test

// One benchmark per experiment in DESIGN.md's index (E1…E10) — running any
// of these regenerates the corresponding figure/table data — plus
// micro-benchmarks on the negotiation hot paths. EXPERIMENTS.md records a
// reference run.

import (
	"fmt"
	"testing"
	"time"

	"loadbalance"
	"loadbalance/internal/agent"
	"loadbalance/internal/benchrun"
	"loadbalance/internal/bus"
	"loadbalance/internal/cluster"
	"loadbalance/internal/core"
	"loadbalance/internal/message"
	"loadbalance/internal/protocol"
	"loadbalance/internal/replica"
	"loadbalance/internal/sim"
	"loadbalance/internal/store"
	"loadbalance/internal/telemetry"
	"loadbalance/internal/utilityagent"
)

// BenchmarkE1DemandCurve regenerates the Figure 1 demand curve.
func BenchmarkE1DemandCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.E1DemandCurve(200, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2InitialPhase regenerates the Figure 6 round-1 table.
func BenchmarkE2InitialPhase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.E2InitialPhase(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3FinalPhase regenerates the Figure 7 final table.
func BenchmarkE3FinalPhase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.E3FinalPhase(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4CustomerDecision regenerates the Figures 8-9 decision trace.
func BenchmarkE4CustomerDecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.E4CustomerDecision(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5MethodComparison runs all three announcement methods on a
// 50-household fleet.
func BenchmarkE5MethodComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.E5MethodComparison(50, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6BetaSweep sweeps the negotiation-speed parameter.
func BenchmarkE6BetaSweep(b *testing.B) {
	betas := []float64{0.5, 1.85, 5}
	for i := 0; i < b.N; i++ {
		if _, err := sim.E6BetaSweep(betas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7Scalability runs fleets of increasing size; per-size results
// come from the sub-benchmarks.
func BenchmarkE7Scalability(b *testing.B) {
	for _, n := range []int{10, 100, 500} {
		n := n
		b.Run(sizeName(n), func(b *testing.B) {
			s, err := core.PopulationScenario(core.PopulationConfig{
				N: n, Seed: 1, Margin: 0.2, Method: utilityagent.MethodRewardTable,
			})
			if err != nil {
				b.Fatal(err)
			}
			s.Timeout = 2 * time.Minute
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string { return fmt.Sprintf("n%d", n) }

// BenchmarkE8ProtocolProperties verifies the protocol properties on
// randomized runs.
func BenchmarkE8ProtocolProperties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.E8ProtocolProperties(3, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9FailureInjection measures lossy negotiations.
func BenchmarkE9FailureInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.E9FailureInjection([]float64{0.1}, []int{2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10RewardTableSeries regenerates the full per-round table data.
func BenchmarkE10RewardTableSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.E10RewardTableSeries(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterScale compares one complete negotiation flat against the
// hierarchical concentrator tree on the same synthetic fleet. At n10000 the
// sharded tree's round wall-time beats flat: the root handles K aggregated
// bids instead of N, per-bid decoding spreads across the concentrators, and
// the shards' buses remove the single-mutex bottleneck.
func BenchmarkClusterScale(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		s, err := core.SyntheticScenario(core.SyntheticConfig{N: n, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		s.Timeout = 10 * time.Minute
		b.Run("flat/"+sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(s); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, shards := range []int{16} {
			b.Run(fmt.Sprintf("shards%d/%s", shards, sizeName(n)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := cluster.Run(cluster.Config{Scenario: s, Shards: shards}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPaperScenario is the headline number: one complete Figures 6-9
// negotiation (10 agents, 3 rounds) end to end.
func BenchmarkPaperScenario(b *testing.B) {
	s, err := loadbalance.PaperScenario()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loadbalance.Run(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableUpdate measures the reward update rule on the hot path.
func BenchmarkTableUpdate(b *testing.B) {
	tab, err := protocol.StandardTable(42.5)
	if err != nil {
		b.Fatal(err)
	}
	p := core.PaperParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Update(0.35, p)
	}
}

// BenchmarkBusRoundTrip measures one send/receive pair on the in-proc bus.
func BenchmarkBusRoundTrip(b *testing.B) {
	ib, err := bus.NewInProc(bus.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer ib.Close()
	inbox, err := ib.Register("ua", 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ib.Register("c1", 1); err != nil {
		b.Fatal(err)
	}
	env, err := message.NewEnvelope("c1", "ua", "s", message.CutDownBid{Round: 1, CutDown: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ib.Send(env); err != nil {
			b.Fatal(err)
		}
		<-inbox
	}
}

// BenchmarkEnvelopeCodec measures wire marshalling.
func BenchmarkEnvelopeCodec(b *testing.B) {
	tab, err := protocol.StandardTable(42.5)
	if err != nil {
		b.Fatal(err)
	}
	s, err := loadbalance.PaperScenario()
	if err != nil {
		b.Fatal(err)
	}
	env, err := message.NewEnvelope("ua", "", "s", tab.Message(s.Window, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := env.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := message.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireCodec measures one encode+decode round trip through the TCP
// framing (varint-length binary frames) for the two shapes that dominate
// transport traffic: the UA's reward-table announcement (largest frame on the
// wire) and a customer's cut-down bid (smallest, highest count). The bodies
// live in internal/benchrun so cmd/benchrec records the same floors into
// BENCH_gridd.json.
func BenchmarkWireCodec(b *testing.B) {
	b.Run("binary/table", benchrun.WireCodecTable)
	b.Run("binary/bid", benchrun.WireCodecBid)
}

// BenchmarkWireCodecTraced is the tracing tentpole's overhead gate on the
// wire: the binary framing with the trace subsystem enabled and untraced
// envelopes (must be free — the encoding is byte-identical), and with a
// stamped trace context (the 18-byte-per-frame cost of actually tracing).
func BenchmarkWireCodecTraced(b *testing.B) {
	b.Run("enabled/table", benchrun.WireCodecTableTraced)
	b.Run("enabled/bid", benchrun.WireCodecBidTraced)
	b.Run("ctx/table", benchrun.WireCodecTableCtx)
	b.Run("ctx/bid", benchrun.WireCodecBidCtx)
}

// BenchmarkDistributedNegotiation compares one complete negotiation through
// the in-process concentrator tree against the same tree with every
// concentrator behind its own pair of TCP connections — the real cost of
// moving the tier out of process.
func BenchmarkDistributedNegotiation(b *testing.B) {
	s, err := core.SyntheticScenario(core.SyntheticConfig{N: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s.Timeout = time.Minute
	b.Run("inproc/shards4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cluster.Run(cluster.Config{Scenario: s, Shards: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp/shards4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cluster.RunDistributed(cluster.DistributedConfig{Scenario: s, Shards: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11DayPeakShaving runs a full day of rolling negotiations.
func BenchmarkE11DayPeakShaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.E11DayPeakShaving(20, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12MarketComparison compares the protocol to the market baseline.
func BenchmarkE12MarketComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.E12MarketComparison(50, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13ForecastDriven measures the forecast-driven negotiation.
func BenchmarkE13ForecastDriven(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.E13ForecastDrivenNegotiation(10, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicationStream measures the WAL replication pipeline end to
// end: journal frames tailed off the primary's data directory, shipped over
// a real TCP connection as raw-frame replication batches, CRC-verified and
// persisted byte-exactly into a hot standby's journal, with per-batch acks
// flowing back. The acceptance gate is ≥300k records/s — replication must
// never become the live loop's bottleneck (the journal itself sustains
// ~750k records/s).
func BenchmarkReplicationStream(b *testing.B) {
	primDir, replDir := b.TempDir(), b.TempDir()
	prim, _, err := store.Open(primDir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer prim.Close()
	cp := store.TickCheckpoint{Readings: 512, Batches: 4, Shard: make([]float64, 16)}
	for i := range cp.Shard {
		cp.Shard[i] = 10 + float64(i)/16
	}
	for i := 0; i < b.N; i++ {
		cp.Tick = i
		if err := prim.AppendTick(cp); err != nil {
			b.Fatal(err)
		}
		if i%256 == 255 {
			if err := prim.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := prim.Sync(); err != nil {
		b.Fatal(err)
	}

	sender, err := replica.StartSender(replica.SenderConfig{
		Dir:       primDir,
		Addr:      "127.0.0.1:0",
		Poll:      time.Millisecond,
		Heartbeat: 50 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sender.Close()
	repl, _, err := store.Open(replDir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer repl.Close()
	tap := &replica.StoreTap{St: repl}

	b.ReportAllocs()
	b.ResetTimer()
	rx, err := replica.StartReceiver(replica.ReceiverConfig{
		ID:              "bench",
		Addrs:           []string{sender.Addr()},
		FailoverTimeout: time.Minute,
	}, tap)
	if err != nil {
		b.Fatal(err)
	}
	defer rx.Close()
	deadline := time.Now().Add(5 * time.Minute)
	for tap.LastSeq() < uint64(b.N) {
		if time.Now().After(deadline) {
			b.Fatalf("replication stalled at seq %d of %d", tap.LastSeq(), b.N)
		}
		time.Sleep(200 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkJournalAppend measures the durability hot path: meter-batch
// checkpoint records (16-shard tick vectors, the record the live loop
// appends every tick) encoded and appended to the write-ahead journal, with
// the loop's commit cadence (one buffer flush per 64 records) and a final
// fsync. The acceptance gate for the store is ≥500k records/s — journaling
// must never bottleneck the telemetry floor of 100k readings/s. The body
// lives in internal/benchrun so cmd/benchrec records the same floor into
// BENCH_gridd.json.
func BenchmarkJournalAppend(b *testing.B) { benchrun.JournalAppend(b) }

// BenchmarkJournalAppendTraced is the same workload with the trace
// subsystem enabled — the tracing tentpole's overhead gate on the
// durability path (budget: within 5% of BenchmarkJournalAppend).
func BenchmarkJournalAppendTraced(b *testing.B) { benchrun.JournalAppendTraced(b) }

// BenchmarkLogEventDisabled measures a below-threshold structured log call
// — the cost the migrated log sites pay when their level is gated off. The
// body lives in internal/benchrun; benchrec -check holds it to an absolute
// 25ns/op budget.
func BenchmarkLogEventDisabled(b *testing.B) { benchrun.LogEventDisabled(b) }

// BenchmarkFeedbackScoreCompute measures one composite feedback-score
// recomputation — the health layer's per-tick addition to the live loop.
func BenchmarkFeedbackScoreCompute(b *testing.B) { benchrun.FeedbackScoreCompute(b) }

// BenchmarkObsWorkload measures the instrumented per-tick path (spans +
// histogram + sampled log) with nothing consuming the rings.
func BenchmarkObsWorkload(b *testing.B) { benchrun.ObsWorkload(b) }

// BenchmarkObsWorkloadStreamed is the same workload with a live obs hub and
// emitter shipping the rings over loopback — the fleet observability
// plane's overhead gate (budget: within 5% of BenchmarkObsWorkload).
func BenchmarkObsWorkloadStreamed(b *testing.B) { benchrun.ObsWorkloadStreamed(b) }

// BenchmarkTsdbAppend measures one metrics-history store append — the
// per-sample scrape cost.
func BenchmarkTsdbAppend(b *testing.B) { benchrun.TsdbAppend(b) }

// BenchmarkTsdbRangeQuery measures one rate() range query over a full raw
// ring — the /query and gridctl plot hot path.
func BenchmarkTsdbRangeQuery(b *testing.B) { benchrun.TsdbRangeQuery(b) }

// BenchmarkTsdbWorkload measures the instrumented observe path with no
// history scraper running.
func BenchmarkTsdbWorkload(b *testing.B) { benchrun.TsdbWorkload(b) }

// BenchmarkTsdbWorkloadScraped is the same workload with a live scraper
// snapshotting the registry into a store — the metrics-history tentpole's
// overhead gate (budget: within 5% of BenchmarkTsdbWorkload).
func BenchmarkTsdbWorkloadScraped(b *testing.B) { benchrun.TsdbWorkloadScraped(b) }

// BenchmarkKBInferCARound is one Customer Agent's round-2 inference on the
// knowledge base alone (see benchrun.KBInferCARound); allocs/op is the tracked
// quantity.
func BenchmarkKBInferCARound(b *testing.B) { benchrun.KBInferCARound(b) }

// BenchmarkCAReact is one customer's share of a two-round session: agent
// construction plus both Reacts (see benchrun.CAReact).
func BenchmarkCAReact(b *testing.B) { benchrun.CAReact(b) }

// BenchmarkTelemetryIngest measures the live metering hot path: a fleet of
// meters publishing batched readings over one in-process bus into the
// collector agent, per-tick. The reported readings/s metric is the sustained
// ingest rate through the whole pipeline (sample, envelope-encode, bus
// delivery, decode, shard aggregation); the live loop needs ≥100k/s to meter
// a 100k-customer grid at 1-second ticks.
func BenchmarkTelemetryIngest(b *testing.B) {
	const fleetSize = 512
	meters := make([]*telemetry.Meter, 0, fleetSize)
	shardOf := make(map[string]int, fleetSize)
	for i := 0; i < fleetSize; i++ {
		name := fmt.Sprintf("c%06d", i)
		m, err := telemetry.NewMeter(telemetry.MeterConfig{Customer: name, BaseKWh: 1.5, Jitter: 0.02, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		meters = append(meters, m)
		shardOf[name] = i % 16
	}
	fleet, err := telemetry.NewFleet(meters, 0)
	if err != nil {
		b.Fatal(err)
	}
	col, err := telemetry.NewCollector(telemetry.CollectorConfig{ShardOf: shardOf, Shards: 16})
	if err != nil {
		b.Fatal(err)
	}
	ib, err := bus.NewInProc(bus.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer ib.Close()
	rt, err := agent.Start("collector", ib, col.Handler(), 256)
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := fleet.PublishTick(ib, "metering", "collector", "bench", i)
		if err != nil {
			b.Fatal(err)
		}
		if err := col.WaitTick(i, n, 10*time.Second); err != nil {
			b.Fatal(err)
		}
		col.CloseTick(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(fleetSize*b.N)/b.Elapsed().Seconds(), "readings/s")
}

// BenchmarkLiveDeviationDetect measures the per-tick deviation screen across
// a sharded fleet — the O(shards) work the live loop does every tick before
// deciding whether anything re-negotiates.
func BenchmarkLiveDeviationDetect(b *testing.B) {
	const shards = 64
	det, err := telemetry.NewDeviationDetector(shards, telemetry.DeviationConfig{AbsKWh: 0.5, Rel: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One shard drifts periodically; the rest hold their profile.
		for s := 0; s < shards; s++ {
			measured := 10.0
			if s == i%shards && i%3 != 0 {
				measured = 25
			}
			det.Observe(s, measured, 10)
		}
	}
	b.ReportMetric(float64(shards*b.N)/b.Elapsed().Seconds(), "observations/s")
}
