package loadbalance_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"loadbalance"
)

// pinnedDigests are the negotiated outcomes of SyntheticScenario{N, Seed},
// recorded on the commit before the kb.Store rebuild (PR 12) and recomputed
// unchanged after it: "flat" is SHA-256 of json.Marshal(Result.Awards) from
// Run, "shards16" is SHA-256 of json.Marshal of awards plus FinalBids from
// RunSharded with 16 shards. A change that moves any of them changed what the
// agents negotiate, not just how fast.
var pinnedDigests = map[string]string{
	"flat/n256/seed1":      "b2d1e9252436fbc5424caded8fd5f9c6738b70556f07401628eaf251ea8927ba",
	"flat/n256/seed7":      "1730ee17fa882fbca59a7e1e6678741302792145bd35ad4fe0ddaeae9ec7381f",
	"flat/n1000/seed1":     "6b6911419f69b204df2922fa6d5360c76c467aa924c7ade8a1811e30bcb80979",
	"flat/n1000/seed7":     "14422de7a742cf8f3d58e930349fdcef8750f15f86210a1bd2d91b94029a819d",
	"shards16/n256/seed1":  "bfdcb455926fa04a5bc1326acbf38b79cb73f95d5e23f9059cd0309014795edc",
	"shards16/n256/seed7":  "e79aa23441932fa1a35ce151b6dcff10568a95a37995631c6e5ea03e874ac43e",
	"shards16/n1000/seed1": "5d5c79c3c90c02cc3da028bf1c99349113a9fc3d95dde498a32956570b97dae0",
	"shards16/n1000/seed7": "ca5d2fca830f4a054a756f24dd009a0ef01b2e1badb9046fe51fbd199af2e220",
}

func sha256JSON(t *testing.T, v any) string {
	t.Helper()
	doc, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// TestPinnedAwardsDigests holds the flat and the sharded engine to the
// recorded outcomes.
func TestPinnedAwardsDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight full negotiations")
	}
	for _, n := range []int{256, 1000} {
		for _, seed := range []int64{1, 7} {
			s, err := loadbalance.SyntheticScenario(loadbalance.SyntheticConfig{N: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			flat, err := loadbalance.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := loadbalance.RunSharded(loadbalance.ClusterConfig{Scenario: s, Shards: 16})
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]string{
				"flat": sha256JSON(t, flat.Awards),
				"shards16": sha256JSON(t, struct {
					Awards    any
					FinalBids map[string]float64
				}{sharded.Awards, sharded.FinalBids}),
			}
			for _, shape := range []string{"flat", "shards16"} {
				key := fmt.Sprintf("%s/n%d/seed%d", shape, n, seed)
				if got[shape] != pinnedDigests[key] {
					t.Errorf("%s: digest %s, pinned %s", key, got[shape], pinnedDigests[key])
				}
			}
		}
	}
}
