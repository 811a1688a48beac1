package sim

import (
	"strings"
	"testing"
)

// TestE11ClusterScale runs a small sweep and checks flat and sharded runs
// agree on the final overuse (the overuse_match column) and that every run
// terminates.
func TestE11ClusterScale(t *testing.T) {
	tab, err := E11cClusterScale([]int{40}, []int{2, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 { // flat + two shard counts
		t.Fatalf("rows = %d:\n%s", len(tab.Rows), tab)
	}
	for _, row := range tab.Rows {
		if row[8] == "" || row[8] == "continue" {
			t.Fatalf("non-terminal outcome in row %v", row)
		}
		if match := row[7]; match != "-" && match != "yes" {
			t.Fatalf("sharded overuse diverged from flat: %v", row)
		}
	}
	if !strings.Contains(tab.String(), "E11cClusterScale") {
		t.Fatal("table name missing")
	}
	if _, err := E11cClusterScale(nil, nil, 1); err == nil {
		t.Fatal("empty sweep should fail")
	}
}
