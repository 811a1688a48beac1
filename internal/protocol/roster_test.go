package protocol

import (
	"errors"
	"fmt"
	"testing"

	"loadbalance/internal/message"
	"loadbalance/internal/units"
)

// TestRecordBidRoundAllocatesNothing records a full round of N = 1 000 bids
// into a session whose bid state has been through a close: the bids land in
// the session's arrays, so the round allocates nothing. Each measured run
// takes a session of its own, so every run is a fresh round.
func TestRecordBidRoundAllocatesNothing(t *testing.T) {
	const n, runs = 1000, 5
	loads := make(map[string]CustomerLoad, n)
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("c%06d", i)
		loads[name] = CustomerLoad{Predicted: 13.5, Allowed: 13.5}
		names = append(names, name)
	}
	tab, err := StandardTable(42.5)
	if err != nil {
		t.Fatal(err)
	}
	recordAll := func(s *RTSession, bid message.CutDownBid) {
		for _, name := range names {
			if err := s.RecordBid(name, bid); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One session per measured run, plus AllocsPerRun's warm-up run.
	sessions := make([]*RTSession, runs+1)
	for i := range sessions {
		s, err := NewRTSession("s", testWindow(), paperParams(), tab, loads, units.Energy(13.5*n/1.35))
		if err != nil {
			t.Fatal(err)
		}
		recordAll(s, message.CutDownBid{Round: 1, CutDown: 0})
		if rec, err := s.CloseRound(); err != nil || rec.Outcome != OutcomeContinue {
			t.Fatalf("round 1 closed %v, %v; want another round", rec.Outcome, err)
		}
		sessions[i] = s
	}
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		recordAll(sessions[next], message.CutDownBid{Round: 2, CutDown: 0.1})
		next++
	}); allocs != 0 {
		t.Fatalf("a round of %d bids allocates %v times, want 0", n, allocs)
	}
	rec, err := sessions[runs].CloseRound()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Responses != n || len(rec.Bids) != n || rec.Bids[names[n-1]] != 0.1 {
		t.Fatalf("round 2 closed with %d responses, %d bids", rec.Responses, len(rec.Bids))
	}
}

// TestRecordBidLookupBoundaries probes the roster's binary search where it
// can go wrong: a name sorting before the first member, between two members,
// after the last, a member's prefix extended, and the empty name are all
// unknown.
func TestRecordBidLookupBoundaries(t *testing.T) {
	tab, err := StandardTable(42.5)
	if err != nil {
		t.Fatal(err)
	}
	loads := map[string]CustomerLoad{"b": {Predicted: 13.5, Allowed: 13.5}, "d": {Predicted: 13.5, Allowed: 13.5}, "f": {Predicted: 13.5, Allowed: 13.5}}
	s, err := NewRTSession("s", testWindow(), paperParams(), tab, loads, 30)
	if err != nil {
		t.Fatal(err)
	}
	bid := message.CutDownBid{Round: 1, CutDown: 0.2}
	for _, name := range []string{"a", "c", "e", "g", "", "bb", "d\x00"} {
		if err := s.RecordBid(name, bid); !errors.Is(err, ErrUnknownCustomer) {
			t.Errorf("RecordBid(%q) = %v, want ErrUnknownCustomer", name, err)
		}
		if _, ok := s.LoadOf(name); ok {
			t.Errorf("LoadOf(%q) found a load", name)
		}
	}
	for name := range loads {
		if err := s.RecordBid(name, bid); err != nil {
			t.Errorf("RecordBid(%q) = %v", name, err)
		}
	}
	if s.ResponseCount() != len(loads) {
		t.Fatalf("ResponseCount = %d, want %d", s.ResponseCount(), len(loads))
	}
}
