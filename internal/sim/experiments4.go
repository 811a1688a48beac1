package sim

import (
	"fmt"
	"math"
	"time"

	"loadbalance/internal/cluster"
	"loadbalance/internal/core"
)

// E11cClusterScale measures the hierarchical sharded negotiation against the
// flat engine: for each fleet size it negotiates the same seeded synthetic
// scenario once flat and once per shard count, and reports rounds, total
// messages, wall time, the speedup over flat and the convergence outcome.
// Aggregate predicted overuse must agree between flat and every tree (the
// concentrators' additive aggregation preserves the paper's conditions (1)
// and (2)); the row's overuse_match column records that check.
//
// Sized for the ROADMAP's scaling question: sizes of 1k/10k/100k customers
// show the root's per-round cost dropping from O(N) to O(K) while shards run
// in parallel.
func E11cClusterScale(sizes, shardCounts []int, seed int64) (*Table, error) {
	if len(sizes) == 0 || len(shardCounts) == 0 {
		return nil, fmt.Errorf("cluster scale: empty sweep")
	}
	t := &Table{
		Name:    "E11cClusterScale: flat vs hierarchical sharded negotiation",
		Columns: []string{"customers", "shards", "rounds", "messages", "elapsed_ms", "speedup", "final_overuse_ratio", "overuse_match", "outcome"},
		Notes:   "shards=flat is the single-bus baseline; overuse_match compares each tree's final overuse to flat within 1e-6 kWh",
	}
	for _, n := range sizes {
		s, err := core.SyntheticScenario(core.SyntheticConfig{N: n, Seed: seed})
		if err != nil {
			return nil, err
		}
		s.Timeout = 10 * time.Minute
		flat, err := core.Run(s)
		if err != nil {
			return nil, fmt.Errorf("flat n=%d: %w", n, err)
		}
		flatMS := float64(flat.Elapsed.Microseconds()) / 1000
		t.AddRowF(n, "flat", flat.Rounds, flat.Bus.Sent, flatMS, 1.0, flat.FinalOveruseRatio, "-", flat.Outcome)

		for _, k := range shardCounts {
			res, err := cluster.Run(cluster.Config{Scenario: s, Shards: k})
			if err != nil {
				return nil, fmt.Errorf("n=%d shards=%d: %w", n, k, err)
			}
			match := "yes"
			if math.Abs(res.FinalOveruseKWh-flat.FinalOveruseKWh) > 1e-6 {
				match = fmt.Sprintf("no (Δ%.3g kWh)", res.FinalOveruseKWh-flat.FinalOveruseKWh)
			}
			speedup := 0.0
			if res.Elapsed > 0 {
				speedup = float64(flat.Elapsed) / float64(res.Elapsed)
			}
			t.AddRowF(n, k, res.Rounds, res.Bus.Sent, float64(res.Elapsed.Microseconds())/1000,
				speedup, res.FinalOveruseRatio, match, res.Outcome)
		}
	}
	return t, nil
}
